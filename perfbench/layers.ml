(** The traced run's per-layer pass.

    Spans from the benchmark's own code wrap the public call of each
    layer — [Engine.analyze], [Planner.compile],
    [Planner.execute_compiled], [Xindex.probe_range], [Engine.to_xml],
    [Storage.Table.rows], [Engine.Txn.begin_]/[commit] and the
    [Xnet.Client] calls — and the engine's own [Xprof] counters, read
    after each profiled statement, give the work counts. Ratios whose
    base is empty (no index probe in a scan workload, say) read 0. *)

module Q = Queries

let ratio a b = if b = 0. then 0. else a /. b
let med xs = if Array.length xs = 0 then 0. else Stats.median xs

let find_index eng name =
  List.find
    (fun (i : Xmlindex.Xindex.t) -> i.Xmlindex.Xindex.def.iname = name)
    (Engine.xml_indexes eng)

(** [Xindex.probe_range] over the index's own path set, as the planner
    issues it. *)
let direct_probe eng (p : Q.probe) () =
  let idx = find_index eng p.Q.index in
  let d = idx.Xmlindex.Xindex.def in
  let pt =
    Storage.Table.path_table_exn
      (Storage.Database.table_exn (Engine.database eng) d.table)
      d.column
  in
  let paths = Xmlindex.Xindex.matching_paths pt d.pattern in
  ignore (Xmlindex.Xindex.probe_range idx ~paths p.Q.range)

let counter name counters =
  float_of_int (Option.value ~default:0 (List.assoc_opt name counters))

(** Profile each sample statement layer by layer at [parallelism];
    returns the metrics computed from their spans and counters. The
    statements run inside one read-write transaction: there they read
    the live state through the engine's own context, whose [Xprof]
    counters are the ones {!Engine.profile} shows (an autocommit read of
    a concurrent engine gets a private context). *)
let statements eng ~parallelism (sample : Q.stmt list) : (string * float) list =
  let s = Q.session eng in
  let par = Engine.parallelism eng in
  Engine.set_parallelism eng parallelism;
  Engine.set_profiling eng true;
  let txn = Engine.Txn.begin_ eng in
  let totals = Hashtbl.create 16 in
  let add k v =
    Hashtbl.replace totals k (v +. Option.value ~default:0. (Hashtbl.find_opt totals k))
  in
  let evals = ref [] in
  List.iteri
    (fun req (st : Q.stmt) ->
      Trace.span ~req "stmt" (fun parent ->
          let span name f = Trace.span ~parent ~req name (fun _ -> f ()) in
          let t_span name f =
            let t0 = Loop.now () in
            let r = span name f in
            (r, (Loop.now () -. t0) *. 1000.)
          in
          ignore (span "analysis.analyze" (fun () -> Engine.analyze eng st.src));
          let probe_ms =
            match st.probe with
            | Some p -> snd (t_span "xmlindex.probe_range" (direct_probe eng p))
            | None -> 0.
          in
          let planned_probe = ref false in
          if not (Q.is_sql st) then begin
            let compiled =
              span "planner.compile" (fun () -> Planner.compile st.src)
            in
            let prof = Engine.profile eng in
            Xprof.reset prof;
            let (_, plan), exec_ms =
              t_span "planner.execute" (fun () ->
                  Planner.execute_compiled ~prof ~vars:st.vars
                    ~parallelism:(Engine.parallelism eng) (Engine.catalog eng)
                    compiled)
            in
            evals := (exec_ms -. probe_ms) :: !evals;
            List.iter
              (fun (_, rows) ->
                add "candidates" (float_of_int (Xdm.Int_set.cardinal rows)))
              plan.Planner.restrictions;
            (* candidates come from the plan, so only the probing
               statements planned here count their results against them *)
            planned_probe := st.probe <> None
          end;
          let o = span "engine.exec" (fun () -> Q.run ~txn s st) in
          let counters = Xprof.counters (Engine.profile eng) in
          List.iter
            (fun k -> add k (counter k counters))
            [
              "docs_scanned"; "index_probes"; "index_entries_scanned";
              "btree_page_reads"; "eval_steps"; "nodes_materialized";
              "struct_probes"; "xpar_chunks";
            ];
          let n, _ = span "xmlparse.serialize" (fun () -> Q.render o) in
          add "results" (float_of_int n);
          if !planned_probe then add "probe_results" (float_of_int n)))
    sample;
  Engine.Txn.commit txn;
  Engine.set_profiling eng false;
  Engine.set_parallelism eng par;
  let t k = Option.value ~default:0. (Hashtbl.find_opt totals k) in
  let n = float_of_int (List.length sample) in
  let ss = Trace.all () in
  let p50 name = med (Trace.durations_ms ss name) in
  [
    ("xmlparse.serialize_ms", p50 "xmlparse.serialize");
    ("storage.docs_scanned_per_result", ratio (t "docs_scanned") (t "results"));
    ("planner.compile_ms", p50 "planner.compile");
    ("analysis.analyze_ms", p50 "analysis.analyze");
    ("xmlindex.probe_ms", p50 "xmlindex.probe_range");
    ("xmlindex.candidates_per_result", ratio (t "candidates") (t "probe_results"));
    ( "xmlindex.entries_scanned_per_probe",
      ratio (t "index_entries_scanned") (t "index_probes") );
    ("btree.page_reads_per_probe", ratio (t "btree_page_reads") (t "index_probes"));
    ("planner.execute_ms", p50 "planner.execute");
    ("xquery.eval_ms", med (Array.of_list !evals));
    ("xquery.eval_steps_per_stmt", ratio (t "eval_steps") n);
    ("xquery.nodes_materialized_per_stmt", ratio (t "nodes_materialized") n);
    ("xmlindex.struct_probes_per_stmt", ratio (t "struct_probes") n);
    ("xpar.chunks_per_stmt", ratio (t "xpar_chunks") n);
  ]

(** One [Storage.Table.rows] enumeration of the orders table, p50 of 5. *)
let table_rows eng =
  let tbl = Storage.Database.table_exn (Engine.database eng) "orders" in
  for _ = 1 to 5 do
    Trace.span "storage.table_rows" (fun _ -> ignore (Storage.Table.rows tbl))
  done;
  [ ("storage.rows_ms", med (Trace.durations_ms (Trace.all ()) "storage.table_rows")) ]

(** In-process one-row write transactions on the concurrent engine. *)
let transactions eng (w : Db.writer) =
  let n = 10 in
  let undo = ref 0. in
  Engine.set_profiling eng true;
  for req = 1 to n do
    Trace.span ~req "txn" (fun parent ->
        let tx =
          Trace.span ~parent ~req "engine.txn_begin" (fun _ ->
              Engine.Txn.begin_ eng)
        in
        let src, ack = Db.update w in
        Trace.span ~parent ~req "engine.exec" (fun _ -> Db.exec ~txn:tx eng src);
        undo := !undo +. counter "undo_entries" (Xprof.counters (Engine.profile eng));
        Trace.span ~parent ~req "engine.txn_commit" (fun _ ->
            Engine.Txn.commit tx);
        ack ())
  done;
  Engine.set_profiling eng false;
  let ss = Trace.all () in
  [
    ("engine.begin_ms", med (Trace.durations_ms ss "engine.txn_begin"));
    ("engine.commit_ms", med (Trace.durations_ms ss "engine.txn_commit"));
    ("storage.undo_entries_per_txn", !undo /. float_of_int n);
  ]

(** Quiet-server request cost: one client runs [probe] 50 times; the
    server's own [xnet_request_ms] observations of those requests give
    its side, client spans the other. *)
let xnet eng ~port (probe : Q.stmt) =
  let c = Xnet.Client.connect ~host:"127.0.0.1" ~port () in
  Fun.protect ~finally:(fun () -> Xnet.Client.close c) @@ fun () ->
  ignore (Xnet.Client.prepare c ~name:"probe" probe.Q.src);
  let b = Q.wire_bindings probe in
  let n = 50 in
  let hist = Xprof.Registry.hist (Engine.registry eng) "xnet_request_ms" in
  for req = 1 to n do
    Trace.span ~req "xnet.client_execute" (fun _ ->
        ignore (Xnet.Client.execute ~b c "probe"))
  done;
  let server = Array.sub hist.Xprof.Hist.data (hist.Xprof.Hist.n - n) n in
  let client = Trace.durations_ms (Trace.all ()) "xnet.client_execute" in
  let server_p50 = Stats.median server in
  [
    ("xnet.server_request_p50_ms", server_p50);
    ("xnet.wire_ms", Stats.median client -. server_p50);
  ]

(** WAL fsyncs the engine has issued (0 under [sync:false]). *)
let fsyncs eng =
  match
    List.assoc_opt "wal_fsyncs" (Xprof.Registry.metrics (Engine.registry eng))
  with
  | Some (Xprof.Registry.MCounter c) -> float_of_int !c
  | _ -> 0.

(** Durable-layer metrics of the run: data-dir growth per XML byte the
    run wrote, fsyncs issued, and reopen time per MB of data dir
    recovered. No run checkpoints, so the data dir is the WAL and a
    MANIFEST of a few bytes. *)
let durable ~fsyncs ~grown ~user_bytes ~recover_s ~recovered_bytes =
  [
    ("wal.bytes_per_user_byte", ratio (float_of_int grown) (float_of_int user_bytes));
    ("wal.fsyncs", fsyncs);
    ( "durable.recover_ms_per_wal_mb",
      ratio (recover_s *. 1000.) (float_of_int recovered_bytes /. 1048576.) );
  ]

let setup_layers ~n_orders =
  let ss = Trace.all () in
  let per_doc name =
    med (Trace.durations_ms ss name) *. 1000. /. float_of_int n_orders
  in
  [
    ("xmlparse.parse_us_per_doc", per_doc "xmlparse.parse_documents");
    ("storage.load_us_per_doc", per_doc "storage.load_parsed_documents");
  ]

(** Metrics of the traced run's load: plan-cache hits, allocation and
    collections over the whole loop, and the tracing overhead in percent.
    The loop alternates untraced and traced blocks of one cycle each, so
    the k-th read of either set ran the same statement in adjacent
    blocks; the overhead is the median of the k-th traced read's latency
    over the k-th untraced one's. The load is closed-loop, so the
    generator is never late: [loadgen.late_tail_ms] reads 0. *)
let loop_layers ~(cache0 : Engine.Plan_cache.stats)
    ~(cache1 : Engine.Plan_cache.stats) ~(gc0 : Gc.stat) ~(gc1 : Gc.stat)
    ~(plain : Loop.tally) ~(traced : Loop.tally) =
  let ops =
    float_of_int
      (List.length plain.reads + List.length plain.writes
      + List.length traced.reads + List.length traced.writes)
  in
  let hits = float_of_int (cache1.hits - cache0.hits)
  and misses = float_of_int (cache1.misses - cache0.misses) in
  let p = Array.of_list (List.rev plain.reads)
  and t = Array.of_list (List.rev traced.reads) in
  let pairs = Array.init (min (Array.length p) (Array.length t)) (fun k -> t.(k) /. p.(k)) in
  [
    ("engine.plan_cache_hit_ratio", ratio hits (hits +. misses));
    ("gc.minor_words_per_stmt", ratio (gc1.minor_words -. gc0.minor_words) ops);
    ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections));
    ("loadgen.late_tail_ms", 0.);
    ("trace.overhead_pct", 100. *. (Stats.median pairs -. 1.));
  ]
