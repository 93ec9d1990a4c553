(** What one run measured, and the metrics it reports. *)

type t = {
  setup_s : float array;  (** seconds of each set-up *)
  mem_mb : float;
  tally : Loop.tally;
  recover_s : float array;  (** seconds of each reopen *)
  problems : string list;  (** failed answer checks *)
  layers : (string * float) list;  (** traced run only *)
}

let arr xs = Array.of_list xs

(** A metric: name, value, unit, and the sample count behind it (0 for
    a per-layer figure). *)
type metric = { name : string; value : float; unit_ : string; samples : int }

(** The end-to-end metrics with their units, in print order. *)
let end_to_end_units =
  [
    ("setup_s", "s"); ("mem_mb", "MB"); ("read_qps", "1/s");
    ("read_p50_ms", "ms"); ("read_tail_ms", "ms"); ("write_p50_ms", "ms");
    ("write_tail_ms", "ms"); ("recover_s", "s"); ("ok_rate", "ratio");
  ]

(** The per-layer metrics, in print order. *)
let per_layer_names =
  [
    "xmlparse.parse_us_per_doc"; "xmlparse.serialize_ms";
    "storage.load_us_per_doc"; "storage.rows_ms";
    "storage.docs_scanned_per_result"; "planner.compile_ms";
    "analysis.analyze_ms"; "engine.plan_cache_hit_ratio"; "xmlindex.probe_ms";
    "xmlindex.candidates_per_result"; "xmlindex.entries_scanned_per_probe";
    "btree.page_reads_per_probe"; "planner.execute_ms"; "xquery.eval_ms";
    "xquery.eval_steps_per_stmt"; "xquery.nodes_materialized_per_stmt";
    "xmlindex.struct_probes_per_stmt"; "xpar.chunks_per_stmt";
    "engine.begin_ms"; "engine.commit_ms"; "storage.undo_entries_per_txn";
    "wal.bytes_per_user_byte"; "wal.fsyncs"; "durable.recover_ms_per_wal_mb";
    "xnet.server_request_p50_ms"; "xnet.wire_ms"; "gc.minor_words_per_stmt";
    "gc.major_collections"; "loadgen.late_tail_ms"; "trace.overhead_pct";
  ]

(** The end-to-end metrics. [read_tail]/[write_tail] are the workload's
    fixed tail percentiles. *)
let end_to_end ~read_tail ~write_tail (r : t) : metric list =
  let t = r.tally in
  let reads = arr t.reads and writes = arr t.writes in
  let nr = Array.length reads and nw = Array.length writes in
  let m ~samples name value =
    { name; value; unit_ = List.assoc name end_to_end_units; samples }
  in
  let ok_reads =
    Array.fold_left (fun n ms -> if ms < Loop.fail_ms then n + 1 else n) 0 reads
  in
  [
    m ~samples:(Array.length r.setup_s) "setup_s" (Stats.median r.setup_s);
    m ~samples:1 "mem_mb" r.mem_mb;
    m ~samples:nr "read_qps" (float_of_int ok_reads /. t.elapsed);
    m ~samples:nr "read_p50_ms" (Stats.median reads);
    m ~samples:nr "read_tail_ms" (Stats.percentile reads read_tail);
    m ~samples:nw "write_p50_ms" (Stats.median writes);
    m ~samples:nw "write_tail_ms" (Stats.percentile writes write_tail);
    m ~samples:(Array.length r.recover_s) "recover_s" (Stats.median r.recover_s);
    m ~samples:t.attempted "ok_rate"
      (float_of_int (t.attempted - t.failed) /. float_of_int (max 1 t.attempted));
  ]

(** Unit of each per-layer metric, by name suffix. *)
let layer_unit name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_ms" then "ms"
  else if ends "_us_per_doc" then "us"
  else if ends "_per_wal_mb" then "ms/MB"
  else if ends "_pct" then "%"
  else if ends "_ratio" || ends "_per_result" || ends "_per_user_byte" then
    "ratio"
  else if ends "minor_words_per_stmt" then "words"
  else "count"

let per_layer (r : t) : metric list =
  List.map
    (fun (name, value) -> { name; value; unit_ = layer_unit name; samples = 0 })
    r.layers

(** Print each metric by name and unit, then the one-line JSON result. *)
let print ~correct ~(tally : Loop.tally) (ms : metric list) =
  List.iter
    (fun m ->
      Printf.printf "%-40s %14.4f %-6s%s\n" m.name m.value m.unit_
        (if m.samples > 0 then Printf.sprintf " (n=%d)" m.samples else ""))
    ms;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (Stats.json_float m.value) m.unit_)
      ms
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.Loop.attempted tally.Loop.failed (String.concat ", " fields)

(** End a run: close the data dir and reopen it (timed), then check the
    recovered state. A traced run adds the durable-layer metrics. *)
let finish ~trace ~dir ~bytes0 ~setup_s ~mem_mb ~tally ~problems ~layers eng
    (w : Db.writer) =
  let fsyncs = Layers.fsyncs eng in
  let grown = Db.dir_bytes dir - bytes0 in
  let eng, recover_s, recovered_bytes = Db.reopen eng dir in
  let problems = problems @ Db.check_durable eng w in
  Engine.close eng;
  let layers =
    if not trace then []
    else
      layers
      @ Layers.durable ~fsyncs ~grown ~user_bytes:w.Db.user_bytes
          ~recover_s:(Stats.median recover_s) ~recovered_bytes
  in
  { setup_s; mem_mb; tally; recover_s; problems; layers }
