(** The repo benchmark: one run of one workload.

    {v xqbench --workload NAME --seed N --seconds S --trace 0|1 v}

    prints every metric by name and unit, then, as its last line, one
    JSON object [{"correct", "attempted", "failed", "metrics"}]. With
    [--trace 0] the metrics are the end-to-end ones; with [--trace 1] a
    separate traced run gives the per-layer ones and writes its spans to
    [perfbench/out/]. [--selftest] runs the harness's own tests and
    [--list] prints the metric table. Run it through [perfbench/run.py],
    which builds it first. *)

let out_dir = "perfbench/out"

(** The workloads of BENCHMARK.json, each with its fixed read and write
    tail percentiles. *)
let workloads =
  let inproc (s : Inproc.spec) = (Inproc.run s, s.read_tail, s.write_tail) in
  [
    ("paper_probe", inproc Inproc.paper_probe);
    ("paper_scan", inproc Inproc.paper_scan);
  ]

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let main ~workload ~seed ~seconds ~trace =
  let run, read_tail, write_tail =
    match List.assoc_opt workload workloads with
    | Some w -> w
    | None ->
        fail "unknown workload %S (known: %s)" workload
          (String.concat ", " (List.map fst workloads))
  in
  Db.mkdir_p out_dir;
  let dir = Filename.concat out_dir (workload ^ ".db") in
  Trace.on := trace;
  let r = run ~seed ~seconds ~trace ~dir in
  Db.rm_rf dir;
  if trace then
    Trace.write
      (Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" workload seed))
      (Trace.all ());
  let ms, names =
    if trace then (Result.per_layer r, Result.per_layer_names)
    else
      ( Result.end_to_end ~read_tail ~write_tail r,
        List.map fst Result.end_to_end_units )
  in
  let ms =
    List.map
      (fun name ->
        match List.find_opt (fun m -> m.Result.name = name) ms with
        | Some m when Float.is_finite m.Result.value -> m
        | Some _ -> fail "metric %s was not measured" name
        | None -> fail "metric %s is missing" name)
      names
  in
  let t = r.Result.tally in
  List.iter
    (fun (what, n, p) ->
      if (not trace) && Stats.beyond ~n p < 10 then
        Printf.eprintf "warning: %d %s samples leave fewer than 10 beyond p%g\n" n
          what p)
    [
      ("read", List.length t.Loop.reads, read_tail);
      ("write", List.length t.Loop.writes, write_tail);
    ];
  List.iter (fun p -> prerr_endline ("CHECK FAILED: " ^ p)) r.Result.problems;
  let correct = r.Result.problems = [] in
  Result.print ~correct ~tally:t ms;
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--selftest", Arg.Unit (fun () -> mode := `Selftest), " run the harness tests");
      ("--list", Arg.Unit (fun () -> mode := `List), " print the metric table");
    ]
    (fun a -> fail "unexpected argument %S" a)
    "xqbench --workload NAME --seed N --seconds S --trace 0|1";
  match !mode with
  | `Selftest ->
      Selftest.run
        ~names:(List.map fst Result.end_to_end_units @ Result.per_layer_names)
  | `List ->
      List.iter
        (fun (n, u) -> Printf.printf "end_to_end %s %s\n" n u)
        Result.end_to_end_units;
      List.iter
        (fun n -> Printf.printf "per_layer %s %s\n" n (Result.layer_unit n))
        Result.per_layer_names;
      List.iter (fun (w, _) -> Printf.printf "workload %s -\n" w) workloads
  | `Run ->
      if !seconds <= 0. then fail "--seconds must be positive";
      if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
      main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
