(** The closed-loop load generator and failure accounting.

    An operation that raises a coded engine error ([Xdm.Xerror.Error],
    which includes refusals such as [XQDB0007] and admission errors)
    counts as failed, and its latency sample is
    {!fail_ms}: a failure misses every latency limit, so a change cannot
    fail faster to look quicker. Any other exception is a harness bug
    and ends the run. *)

type kind = Read | Write

(** One set of samples; {!merge} joins two. *)
type tally = {
  mutable reads : float list;  (** ms *)
  mutable writes : float list;  (** ms *)
  mutable attempted : int;
  mutable failed : int;
  mutable elapsed : float;  (** seconds from the loop's start to this tally's last sample *)
}

let tally () =
  { reads = []; writes = []; attempted = 0; failed = 0; elapsed = 0. }

let merge a b =
  {
    reads = a.reads @ b.reads;
    writes = a.writes @ b.writes;
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    elapsed = Float.max a.elapsed b.elapsed;
  }

(** Latency charged to a failed operation: longer than any run. *)
let fail_ms = 600_000.

let now = Unix.gettimeofday
let reported = ref 0

let attempt (f : unit -> unit) : bool =
  let fail msg =
    if !reported < 5 then begin
      incr reported;
      prerr_endline ("operation failed: " ^ msg)
    end;
    false
  in
  match f () with
  | () -> true
  | exception Xdm.Xerror.Error { code; msg } -> fail (code ^ " " ^ msg)

(** Run operation [i] under a span (a no-op unless tracing). *)
let run_op i kind f =
  attempt (fun () ->
      Trace.span ~req:i (match kind with Read -> "read" | Write -> "write")
        (fun _ -> f ()))

let record t kind ms ok =
  t.attempted <- t.attempted + 1;
  let ms = if ok then ms else (t.failed <- t.failed + 1; fail_ms) in
  match kind with
  | Read -> t.reads <- ms :: t.reads
  | Write -> t.writes <- ms :: t.writes

(** Closed loop: the next operation is issued when the previous one
    returns; latency is measured from issue. [next i] builds operation
    [i] (outside the timed interval) and [tally_of i] is the tally it is
    recorded in. *)
let closed ~seconds (tally_of : int -> tally) (next : int -> kind * (unit -> unit)) =
  let t_start = now () in
  let t_end = t_start +. seconds in
  let i = ref 0 in
  while now () < t_end do
    let kind, f = next !i in
    let t0 = now () in
    let ok = run_op !i kind f in
    let t1 = now () in
    let t = tally_of !i in
    record t kind ((t1 -. t0) *. 1000.) ok;
    t.elapsed <- t1 -. t_start;
    incr i
  done
