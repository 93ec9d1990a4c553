(** The harness's own tests ([xqbench --selftest]): the percentile and
    sample-count rule, the metric-name grammar, span self time, and that
    a seed fixes the generated inputs byte for byte. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let percentiles () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 of 1..100 is 50" (Stats.percentile xs 50. = 50.);
  check "p95 of 1..100 is 95" (Stats.percentile xs 95. = 95.);
  check "p99 of 1..100 is 99" (Stats.percentile xs 99. = 99.);
  check "p100 is the maximum" (Stats.percentile xs 100. = 100.);
  check "percentile leaves its input unsorted" (xs.(0) = 100.);
  check "empty percentile is nan" (Float.is_nan (Stats.percentile [||] 50.));
  check "single sample" (Stats.median [| 7. |] = 7.);
  check "10 beyond p99 of 1000" (Stats.beyond ~n:1000 99. = 10);
  check "9 beyond p99 of 999" (Stats.beyond ~n:999 99. = 9);
  check "tail of 1000 samples is p99" (Stats.tail_for ~n:1000 = 99.);
  check "tail of 999 samples is p95" (Stats.tail_for ~n:999 = 95.);
  check "tail of 200 samples is p95" (Stats.tail_for ~n:200 = 95.);
  check "tail of 199 samples is p90" (Stats.tail_for ~n:199 = 90.);
  check "tail of 100 samples is p90" (Stats.tail_for ~n:100 = 90.);
  check "tail of 20 samples falls back to p90" (Stats.tail_for ~n:20 = 90.)

let grammar ~names =
  List.iter
    (fun n -> check (Printf.sprintf "valid name %s" n) (Stats.valid_name n))
    [ "setup_s"; "read_p50_ms"; "xmlindex.probe_ms"; "a"; "9-lives"; String.make 64 'x' ];
  List.iter
    (fun n -> check (Printf.sprintf "invalid name %S" n) (not (Stats.valid_name n)))
    [ ""; ".hidden"; "_x"; "has space"; "slash/ed"; "p50%"; String.make 65 'x' ];
  check "every metric name is valid" (List.for_all Stats.valid_name names);
  check "metric names are unique"
    (List.length (List.sort_uniq compare names) = List.length names)

let spans () =
  let s id parent t0 t1 = { Trace.id; name = "s"; parent; req = 0; t0; t1 } in
  let ss = [ s 1 0 0. 10.; s 2 1 2. 5.; s 3 1 4. 8.; s 4 2 3. 4. ] in
  let self id = List.assoc id (List.map (fun (sp, x) -> (sp.Trace.id, x)) (Trace.self_times ss)) in
  check "self time subtracts the union of overlapping children" (self 1 = 4.);
  check "self time of a span with one child" (self 2 = 2.);
  check "self time of a leaf is its duration" (self 3 = 4.)

(** Everything a workload generates from its seed, as one string. *)
let inputs seed =
  let rng = Gen.stream ~seed 1 in
  let w = Db.writer ~seed ~n_orders:100 in
  let stmts =
    List.map
      (fun l -> (Queries.probe_stmt rng ~prepared:false l).Queries.src)
      [ "Q1"; "Q7"; "Q8"; "Q11"; "Q17"; "Q22"; "Q27"; "Q30" ]
    @ List.map (fun l -> (Queries.scan_stmt rng l).Queries.src) Queries.scan_labels
  in
  String.concat "\n"
    (Gen.orders ~seed 100 @ Gen.customers ~seed
    @ List.map fst (Gen.products ~seed)
    @ stmts
    @ [ fst (Db.insert w); fst (Db.update w) ])

let seeds () =
  check "the same seed gives byte-identical inputs" (inputs 7 = inputs 7);
  check "another seed gives other inputs" (inputs 7 <> inputs 8);
  check "another seed gives other documents"
    (Gen.orders ~seed:7 20 <> Gen.orders ~seed:8 20)

let run ~names =
  percentiles ();
  grammar ~names;
  spans ();
  seeds ();
  Printf.printf "%d failure(s)\n" !failures;
  exit (if !failures = 0 then 0 else 1)
