(** Schema, load, the write path and the durable round trip shared by
    every workload. Every workload's database is durable with
    [sync:false] (each commit is written to the WAL but not fsynced) and
    runs in concurrent mode (each commit publishes an MVCC snapshot). *)

let coll = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"
let exec ?txn eng src = ignore (Engine.exec ?txn eng src)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(** Bytes in the regular files of [dir]. *)
let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      match Unix.stat (Filename.concat dir f) with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ -> acc)
    0 (Sys.readdir dir)

let schema =
  [
    "CREATE TABLE orders (ordid INTEGER, orddoc XML)";
    "CREATE TABLE customer (cid INTEGER, cdoc XML)";
    "CREATE TABLE products (id VARCHAR(13), name VARCHAR(32))";
  ]

let indexes =
  [
    "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN \
     '//lineitem/@price' AS DOUBLE";
    "CREATE INDEX li_pid ON orders(orddoc) USING XMLPATTERN \
     '//lineitem/product/id' AS VARCHAR(20)";
    "CREATE INDEX c_custid ON customer(cdoc) USING XMLPATTERN '/customer/id' \
     AS DOUBLE";
    (* the write path finds orders by number *)
    "CREATE INDEX o_ordid ON orders(ordid)";
  ]

(** Create, generate, load and index one database in a fresh [dir]. Order
    [i] gets [ordid = i], 1-based. *)
let setup ~seed ~n_orders ~structural ~parallelism dir : Engine.t =
  rm_rf dir;
  let eng = Engine.open_db ~sync:false ~data_dir:dir () in
  Engine.set_parallelism eng parallelism;
  List.iter (exec eng) schema;
  let docs = Gen.orders ~seed n_orders in
  let parsed =
    Trace.span "xmlparse.parse_documents" (fun _ ->
        Engine.parse_documents eng docs)
  in
  Trace.span "storage.load_parsed_documents" (fun _ ->
      Engine.load_parsed_documents eng ~table:"orders" ~column:"orddoc" parsed);
  Engine.load_documents eng ~table:"customer" ~column:"cdoc"
    (Gen.customers ~seed);
  exec eng
    ("INSERT INTO products VALUES "
    ^ String.concat ", "
        (List.map
           (fun (id, name) -> Printf.sprintf "('%s', '%s')" id name)
           (Gen.products ~seed)));
  List.iter (exec eng) indexes;
  if structural then exec eng "CREATE STRUCTURAL INDEX o_struct ON orders(orddoc)";
  (* as a server runs it: every write publishes a snapshot for readers *)
  Engine.enable_concurrent eng;
  eng

(** Live heap in MB after a full major collection. *)
let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
  /. 1048576.

(** Time [f] at least five times and until eight seconds have gone, at
    most 25 times; returns the last result and the seconds each call
    took. [f] gets the previous result to release first. The host's
    speed drifts over seconds, so the calls are spread over a window
    rather than packed into a short one. *)
let repeat_timed (f : 'a option -> 'a) : 'a * float array =
  let rec go prev times spent =
    Gc.full_major ();
    let t0 = Loop.now () in
    let x = f prev in
    let dt = Loop.now () -. t0 in
    let times = dt :: times and spent = spent +. dt in
    let n = List.length times in
    if n >= 25 || (n >= 5 && spent >= 8.) then (x, Array.of_list times)
    else go (Some x) times spent
  in
  go None [] 0.

(** Set up repeatedly (see {!repeat_timed}), keeping the last database;
    returns it with the seconds each set-up took. *)
let timed_setups (mk : unit -> Engine.t) : Engine.t * float array =
  repeat_timed (fun prev ->
      Option.iter Engine.close prev;
      mk ())

(* ------------------------------------------------------------------ *)
(* The write path                                                      *)
(* ------------------------------------------------------------------ *)

(** What the writer has had acknowledged: the live order numbers are
    [oldest .. next_id - 1]; [written] maps each order the run wrote to
    its newest text, for the read-back check. *)
type writer = {
  seed : int;
  rng : Workload.Rand.t;
  mutable next_id : int;
  mutable oldest : int;
  written : (int, string) Hashtbl.t;
  mutable user_bytes : int;  (** XML bytes of acknowledged writes *)
}

let writer ~seed ~n_orders =
  {
    seed;
    rng = Gen.stream ~seed 3;
    next_id = n_orders + 1;
    oldest = 1;
    written = Hashtbl.create 256;
    user_bytes = 0;
  }

let rows w = w.next_id - w.oldest

(** The three write statements, each paired with what to record once it
    is acknowledged. Texts are drawn when called, in call order. *)
let insert w =
  let id = w.next_id in
  let doc = Gen.order_doc ~seed:w.seed w.rng id in
  ( Printf.sprintf "INSERT INTO orders VALUES (%d, '%s')" id doc,
    fun () ->
      w.next_id <- id + 1;
      Hashtbl.replace w.written id doc;
      w.user_bytes <- w.user_bytes + String.length doc )

let delete_oldest w =
  let id = w.oldest in
  ( Printf.sprintf "DELETE FROM orders WHERE ordid = %d" id,
    fun () ->
      w.oldest <- id + 1;
      Hashtbl.remove w.written id )

let update w =
  let id = w.oldest + Workload.Rand.int w.rng (rows w) in
  let doc = Gen.order_doc ~seed:w.seed w.rng id in
  ( Printf.sprintf "UPDATE orders SET orddoc = '%s' WHERE ordid = %d" doc id,
    fun () ->
      if id >= w.oldest then Hashtbl.replace w.written id doc;
      w.user_bytes <- w.user_bytes + String.length doc )

(** One write statement as a closed-loop operation on [eng]. *)
let local_write eng (src, ack) () =
  exec eng src;
  ack ()

(* ------------------------------------------------------------------ *)
(* Durable round trip and its checks                                   *)
(* ------------------------------------------------------------------ *)

(** Close the data dir and reopen it, repeatedly (see {!repeat_timed});
    returns the reopened handle, the seconds each reopen took and the
    data-dir bytes it recovered from. *)
let reopen eng dir =
  Engine.close eng;
  let bytes = dir_bytes dir in
  let eng, secs =
    repeat_timed (fun prev ->
        Option.iter Engine.close prev;
        Engine.open_db ~sync:false ~data_dir:dir ())
  in
  (eng, secs, bytes)

let count_orders eng =
  match Engine.outcome_rows (Engine.exec eng "SELECT count(*) FROM orders") with
  | [ [ Storage.Sql_value.Int n ] ] -> Int64.to_int n
  | _ -> -1

(** After the reopen: the row count equals the acknowledged inserts
    minus deletes, every document the run wrote and did not delete reads
    back, and every index is consistent. Returns the failures. *)
let check_durable eng w : string list =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let n = count_orders eng in
  if n <> rows w then bad "orders: %d rows after reopen, expected %d" n (rows w);
  Hashtbl.iter
    (fun id doc ->
      let want =
        Engine.to_xml
          (List.map (fun d -> Xdm.Item.N d) (Engine.parse_documents eng [ doc ]))
      in
      match
        Engine.outcome_rows
          (Engine.exec eng
             (Printf.sprintf "SELECT orddoc FROM orders WHERE ordid = %d" id))
      with
      | [ [ Storage.Sql_value.Xml got ] ] when Engine.to_xml got = want -> ()
      | _ -> bad "order %d does not read back as written" id)
    w.written;
  List.iter
    (fun (what, errs) ->
      if errs <> [] then bad "check_consistency %s: %s" what (List.hd errs))
    (Engine.check_consistency eng);
  List.rev !problems
