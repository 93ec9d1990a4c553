(** Benchmark-side spans for the traced run.

    Each span records its name, start, end, parent span and request id.
    Spans stay in memory until {!write}; only the traced run records
    any, so the untraced runs that give the end-to-end numbers pay
    nothing. A span's parent is passed explicitly. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 = none *)
  req : int;
  t0 : float;
  t1 : float;
}

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0

(** Run [f] under a span; [f] gets the span's id, to pass as the parent
    of the spans it opens. With tracing off, just [f 0]. *)
let span ?(parent = 0) ?(req = 0) name (f : int -> 'a) : 'a =
  if not !on then f 0
  else begin
    incr next_id;
    let id = !next_id in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        spans := { id; name; parent; req; t0; t1 } :: !spans)
      (fun () -> f id)
  end

let all () = List.rev !spans

(** Self time: a span's duration minus the part of its interval that its
    children cover (counted once where children overlap). *)
let self_times (ss : span list) : (span * float) list =
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent s) ss;
  List.map
    (fun s ->
      let cs =
        Hashtbl.find_all kids s.id
        |> List.map (fun c -> (Float.max c.t0 s.t0, Float.min c.t1 s.t1))
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., s.t0) cs
      in
      (s, s.t1 -. s.t0 -. covered))
    ss

(** Durations (ms) of every span called [name]. *)
let durations_ms ss name =
  List.filter_map
    (fun s -> if s.name = name then Some ((s.t1 -. s.t0) *. 1000.) else None)
    ss
  |> Array.of_list

(** Write every span, and per-name count / total / self time, as JSON. *)
let write path (ss : span list) =
  let module J = Xprof.Json in
  let selfs = self_times ss in
  let names = List.sort_uniq compare (List.map (fun s -> s.name) ss) in
  let base = match ss with [] -> 0. | s :: _ -> s.t0 in
  let agg name =
    let mine = List.filter (fun (s, _) -> s.name = name) selfs in
    let total = List.fold_left (fun a (s, _) -> a +. s.t1 -. s.t0) 0. mine in
    let self = List.fold_left (fun a (_, x) -> a +. x) 0. mine in
    J.Obj
      [
        ("name", J.Str name);
        ("count", J.Int (List.length mine));
        ("total_ms", J.Float (total *. 1000.));
        ("self_ms", J.Float (self *. 1000.));
      ]
  in
  let span_json (s, self) =
    J.Obj
      [
        ("id", J.Int s.id);
        ("name", J.Str s.name);
        ("parent", J.Int s.parent);
        ("req", J.Int s.req);
        ("start_ms", J.Float ((s.t0 -. base) *. 1000.));
        ("end_ms", J.Float ((s.t1 -. base) *. 1000.));
        ("self_ms", J.Float (self *. 1000.));
      ]
  in
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("layers", J.Arr (List.map agg names));
            ("spans", J.Arr (List.map span_json selfs));
          ]));
  close_out oc
