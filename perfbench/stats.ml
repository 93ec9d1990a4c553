(** Percentiles, the tail-percentile rule and the metric-name grammar. *)

(** Nearest-rank percentile of [xs] ([p] in (0, 100]); [nan] when
    empty. *)
let percentile (xs : float array) (p : float) : float =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile xs 50.

(** Samples strictly beyond the nearest-rank [p]-th percentile of [n]. *)
let beyond ~n p = n - int_of_float (ceil (p /. 100. *. float_of_int n))

(** The tail percentile a run of [n] samples supports: the highest of
    p99, p95 and p90 with at least ten samples beyond it; p90 when even
    that has fewer. Workloads fix theirs from the sample count they
    expect, so the metric's definition never changes between runs. *)
let tail_for ~n =
  match List.find_opt (fun p -> beyond ~n p >= 10) [ 99.; 95.; 90. ] with
  | Some p -> p
  | None -> 90.

(** Metric names: [[A-Za-z0-9_.-]+], starting with a letter or digit, at
    most 64 characters. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok_char s

(** A float as JSON, with all the digits it was measured to. *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f
