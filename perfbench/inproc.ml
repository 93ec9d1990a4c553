(** [paper_probe] and [paper_scan]: one closed-loop client driving an
    in-process [Engine] in concurrent mode, reads and a few writes
    interleaved in a fixed cycle whose values come from the seed. *)

module Q = Queries

type step = R of string * bool  (** label, prepared *) | W of (Db.writer -> string * (unit -> unit))

type spec = {
  n_orders : int;
  parallelism : int;
  layer_parallelism : int;  (** of the traced run's per-statement pass *)
  structural : bool;
  cycle : step list;
  stmt : Workload.Rand.t -> string -> bool -> Q.stmt;  (** rng, label, prepared *)
  check : Q.session -> Workload.Rand.t -> string list;
      (** the answer check: returns the mismatches *)
  read_tail : float;
  write_tail : float;
      (** tail percentiles, fixed from the samples a 10-second run takes *)
}

(* ------------------------------------------------------------------ *)
(* Answer checks (outside the timed region)                            *)
(* ------------------------------------------------------------------ *)

(** Eligible statements, each label prepared and literal: the indexed
    answer equals the scan's, and an index was actually used. *)
let check_probe (s : Q.session) rng =
  let labels = [ "Q1"; "Q7"; "Q8"; "Q11"; "Q17"; "Q22"; "Q27"; "Q30" ] in
  let stmts =
    List.concat_map
      (fun l ->
        let lit = Q.probe_stmt rng ~prepared:false l in
        let prep = Q.probe_stmt rng ~prepared:true l in
        if prep.Q.vars = [] then [ lit ] else [ lit; prep ])
      labels
  in
  List.concat_map
    (fun (st : Q.stmt) ->
      let on = Q.run s st in
      Engine.set_use_indexes s.Q.eng false;
      let off =
        Fun.protect
          ~finally:(fun () -> Engine.set_use_indexes s.Q.eng true)
          (fun () -> Q.run s st)
      in
      (if on.Engine.indexes_used = [] then
         [ Printf.sprintf "%s used no index: %s" st.Q.label st.Q.src ]
       else [])
      @
      if Q.render on <> Q.render off then
        [ Printf.sprintf "%s: indexed answer differs from scan: %s" st.Q.label st.Q.src ]
      else [])
    stmts

(** Ineligible twins: the result fingerprint (count plus a digest of the
    serialization) is the same at parallelism 1 and 2. *)
let check_scan (s : Q.session) rng =
  let fingerprint st =
    let n, text = Q.render (Q.run s st) in
    (n, Digest.to_hex (Digest.string text))
  in
  let par = Engine.parallelism s.Q.eng in
  let at p st =
    Engine.set_parallelism s.Q.eng p;
    fingerprint st
  in
  let bad =
    List.filter_map
      (fun label ->
        let st = Q.scan_stmt rng label in
        if at 1 st <> at 2 st then
          Some (Printf.sprintf "%s: parallelism 1 and 2 disagree: %s" label st.Q.src)
        else None)
      Q.scan_labels
  in
  Engine.set_parallelism s.Q.eng par;
  bad

(* ------------------------------------------------------------------ *)
(* The two workloads                                                   *)
(* ------------------------------------------------------------------ *)

let paper_probe =
  {
    n_orders = 20_000;
    parallelism = 1;
    layer_parallelism = 1;
    structural = false;
    (* 6 prepared and 8 literal reads, 4 writes *)
    cycle =
      [
        R ("Q1", true); R ("Q7", false); R ("Q8", false); W Db.insert;
        R ("Q17", true); R ("Q11", false); R ("Q22", true); W Db.update;
        R ("Q27", true); R ("Q1", false); R ("Q30", true); W Db.delete_oldest;
        R ("Q7", true); R ("Q17", false); R ("Q22", false); W Db.update;
        R ("Q27", false); R ("Q30", false);
      ];
    stmt = (fun rng label prepared -> Q.probe_stmt rng ~prepared label);
    check = check_probe;
    read_tail = 95.;
    write_tail = 90.;
  }

(* The timed loop runs at parallelism 1, like paper_probe: at 2 the run
   needs both cores of a two-core machine, and whenever the host took
   one for a while the run went at half speed. The answer check compares
   parallelism 1 and 2, and the traced run's statement pass runs at 2,
   so the xpar layer is still measured. *)
let paper_scan =
  {
    n_orders = 4_000;
    parallelism = 1;
    layer_parallelism = 2;
    structural = true;
    (* a write after every read: writes are cheap here, and the write
       tail needs 100 samples. The statements' costs form separate
       clusters (15-20 ms for ctor to 130-180 ms for Q2), and a median
       or p90 that falls in the gap between two flips between them from
       run to run. So the cycle has eleven reads, Q2, path and struct
       twice: the median then lies inside the path/struct cluster and
       the p90 inside Q2's. *)
    cycle =
      [
        R ("Q2", false); W Db.insert; R ("Q9", false); W Db.update;
        R ("Q18", false); W Db.delete_oldest; R ("Q19", false); W Db.update;
        R ("Q26", false); W Db.insert; R ("path", false); W Db.update;
        R ("struct", false); W Db.delete_oldest; R ("ctor", false); W Db.update;
        R ("path", false); W Db.update; R ("Q2", false); W Db.update;
        R ("struct", false); W Db.update;
      ];
    stmt = (fun rng label _ -> Q.scan_stmt rng label);
    check = check_scan;
    read_tail = 90.;
    write_tail = 90.;
  }

(** Operation [i] of the cycle, its values drawn from [rng]. *)
let op spec (s : Q.session) w rng =
  let cycle = Array.of_list spec.cycle in
  fun i ->
    match cycle.(i mod Array.length cycle) with
    | R (label, prepared) ->
        let st = spec.stmt rng label prepared in
        (Loop.Read, fun () -> ignore (Q.render (Q.run s st)))
    | W f -> (Loop.Write, Db.local_write s.Q.eng (f w))

(** Statements for the layer pass: one cycle's reads. *)
let sample spec rng =
  List.filter_map
    (function R (label, prepared) -> Some (spec.stmt rng label prepared) | W _ -> None)
    spec.cycle

(** Prepare every prepared template before timing, as an application
    does at start-up. *)
let prepare_all spec s =
  let rng = Gen.stream ~seed:0 0 in
  List.iter
    (function
      | R (label, true) ->
          let st = spec.stmt rng label true in
          if st.Q.vars <> [] then ignore (Q.handle s st)
      | _ -> ())
    spec.cycle

let run spec ~seed ~seconds ~trace ~dir : Result.t =
  let mk () =
    Db.setup ~seed ~n_orders:spec.n_orders ~structural:spec.structural
      ~parallelism:spec.parallelism dir
  in
  let eng, setup_s = Db.timed_setups mk in
  let mem_mb = Db.live_mb () in
  let s = Q.session eng in
  prepare_all spec s;
  let w = Db.writer ~seed ~n_orders:spec.n_orders in
  let rng = Gen.stream ~seed 1 in
  let bytes0 = Db.dir_bytes dir in
  let next = op spec s w rng in
  let plain = Loop.tally () and traced = Loop.tally () in
  let cache0 = Engine.plan_cache_stats eng and gc0 = Gc.quick_stat () in
  if not trace then Loop.closed ~seconds (fun _ -> plain) next
  else begin
    (* tracing and profiling on in every other block of one cycle: the
       two interleaved sets run the same mix, and their read p50s give
       the overhead *)
    let block = List.length spec.cycle in
    let traced_op i = i / block mod 2 = 1 in
    Loop.closed ~seconds
      (fun i -> if traced_op i then traced else plain)
      (fun i ->
        Trace.on := traced_op i;
        Engine.set_profiling eng (traced_op i);
        next i);
    Trace.on := true;
    Engine.set_profiling eng false
  end;
  let gc1 = Gc.quick_stat () and cache1 = Engine.plan_cache_stats eng in
  let problems = spec.check s (Gen.stream ~seed 2) in
  let tally, layers =
    if not trace then (plain, [])
    else begin
      (* one at a time, in this order: [@] would run them right to left *)
      let setup = Layers.setup_layers ~n_orders:spec.n_orders in
      let loop = Layers.loop_layers ~cache0 ~cache1 ~gc0 ~gc1 ~plain ~traced in
      let stmts =
        Layers.statements eng ~parallelism:spec.layer_parallelism (sample spec rng)
      in
      let rows = Layers.table_rows eng in
      let txns = Layers.transactions eng w in
      let srv =
        Xnet.Server.start ~engine:eng { Xnet.Server.default_config with port = 0 }
      in
      let net =
        Fun.protect
          ~finally:(fun () -> Xnet.Server.stop srv)
          (fun () ->
            Layers.xnet eng ~port:(Xnet.Server.port srv)
              (Q.probe_stmt rng ~prepared:true "Q7"))
      in
      (Loop.merge plain traced, setup @ loop @ stmts @ rows @ txns @ net)
    end
  in
  Result.finish ~trace ~dir ~bytes0 ~setup_s ~mem_mb ~tally ~problems ~layers eng w
