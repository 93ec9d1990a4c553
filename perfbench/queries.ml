(** The statements of the workloads, drawn from seeded streams.

    [paper_probe] runs the paper's index-eligible formulations with
    selective values; [paper_scan] runs their index-ineligible twins and
    whole-collection scans. A prepared statement binds its values through
    [xs:double($p)]-style parameters (so the index stays eligible and the
    plan cache serves it); a literal one inlines them, drawn from a space
    far larger than the 128-entry plan cache. *)

open Printf

let coll = Db.coll

(** The index range an eligible statement probes, for the traced run's
    direct probe. *)
type probe = { index : string; range : Xmlindex.Xindex.range }

type stmt = {
  label : string;  (** the paper's query number, or a short name *)
  src : string;
  vars : (string * Xdm.Item.seq) list;  (** non-empty: run prepared *)
  probe : probe option;
}

(** A bound value as the wire protocol's parameter literal. *)
let wire_literal = function
  | [ Xdm.Item.A (Xdm.Atomic.Str s) ] -> "'" ^ s ^ "'"
  | [ Xdm.Item.A (Xdm.Atomic.Double x) ] -> sprintf "%.4f" x
  | _ -> invalid_arg "wire_literal"

(** A statement's bindings as wire parameters. *)
let wire_bindings st =
  {
    Xnet.Proto.params = [];
    vars = List.map (fun (k, v) -> (k, wire_literal v)) st.vars;
  }

let is_sql st = String.length st.src > 6 && String.sub st.src 0 6 = "SELECT"

let dbl x = [ Xdm.Item.A (Xdm.Atomic.Double x) ]
let str s = [ Xdm.Item.A (Xdm.Atomic.Str s) ]

let price_gt x =
  {
    index = "li_price";
    range = { Xmlindex.Xindex.lo = Some (Xdm.Atomic.Double x, false); hi = None };
  }

(* ------------------------------------------------------------------ *)
(* paper_probe: Q1, Q7, Q8, Q11, Q17, Q22, Q27, Q30                    *)
(* ------------------------------------------------------------------ *)

(** Each template takes the text of its comparison operand. *)
let price_templates =
  [
    ("Q1", sprintf "%s//order[lineitem/@price > %s]" coll);
    ("Q7", sprintf "%s//lineitem[@price > %s]" coll);
    ( "Q8",
      sprintf
        "SELECT ordid, orddoc FROM orders WHERE XMLExists('$o//lineitem[@price \
         > %s]' passing orddoc as \"o\")" );
    ( "Q11",
      sprintf
        "SELECT o.ordid, t.li FROM orders o, XMLTable('$o//lineitem[@price > \
         %s]' passing o.orddoc as \"o\" COLUMNS \"li\" XML BY REF PATH '.') as \
         t(li)" );
    ( "Q17",
      sprintf
        "for $d in %s for $i in $d//lineitem[@price > %s] return \
         <result>{$i}</result>"
        coll );
    ("Q22", sprintf "for $o in %s/order return $o/lineitem[@price > %s]" coll);
  ]

let q27 =
  sprintf
    "for $i in %s/order/lineitem where $i/product/id = %s return $i/quantity"
    coll

let q30 = sprintf "for $i in %s//order[lineitem[@price > %s and @price < %s]] return $i" coll

(** A [paper_probe] statement. Price thresholds fall in the top 0.05% of
    the price range and product ids in the tail of the Zipf popularity,
    so each returns a few dozen items at most. SQL statements (Q8, Q11)
    always run as literal texts. *)
let probe_stmt rng ~prepared label : stmt =
  let prepared = prepared && label <> "Q8" && label <> "Q11" in
  match label with
  | "Q27" ->
      let pid = sprintf "p%d" (200 + Workload.Rand.int rng 101) in
      let probe =
        Some
          {
            index = "li_pid";
            range = Xmlindex.Xindex.eq_range (Xdm.Atomic.Str pid);
          }
      in
      if prepared then
        { label; src = q27 "xs:string($pid)"; vars = [ ("pid", str pid) ]; probe }
      else { label; src = q27 (sprintf "'%s'" pid); vars = []; probe }
  | "Q30" ->
      let lo = Gen.between rng 999.5 999.6 in
      let hi = Float.round ((lo +. 0.3) *. 1e4) /. 1e4 in
      let probe =
        Some
          {
            index = "li_price";
            range =
              {
                lo = Some (Xdm.Atomic.Double lo, false);
                hi = Some (Xdm.Atomic.Double hi, false);
              };
          }
      in
      if prepared then
        {
          label;
          src = q30 "xs:double($lo)" "xs:double($hi)";
          vars = [ ("lo", dbl lo); ("hi", dbl hi) ];
          probe;
        }
      else
        {
          label;
          src = q30 (sprintf "%.4f" lo) (sprintf "%.4f" hi);
          vars = [];
          probe;
        }
  | _ ->
      let tpl = List.assoc label price_templates in
      let x = Gen.between rng 999.6 999.9 in
      let probe = Some (price_gt x) in
      if prepared then
        { label; src = tpl "xs:double($p)"; vars = [ ("p", dbl x) ]; probe }
      else { label; src = tpl (sprintf "%.4f" x); vars = []; probe }

(* ------------------------------------------------------------------ *)
(* paper_scan: Q2, Q9, Q18, Q19, Q26 and three scans                   *)
(* ------------------------------------------------------------------ *)

let scan_labels = [ "Q2"; "Q9"; "Q18"; "Q19"; "Q26"; "path"; "struct"; "ctor" ]

(** A [paper_scan] statement: none can use a value index, so each costs
    in proportion to the collection. *)
let scan_stmt rng label : stmt =
  let mk src = { label; src; vars = []; probe = None } in
  let price () = sprintf "%.4f" (Gen.between rng 990. 999.9) in
  match label with
  | "Q2" -> mk (sprintf "%s//order[lineitem/@* > %s]" coll (price ()))
  | "Q9" ->
      mk
        (sprintf
           "SELECT ordid FROM orders WHERE XMLExists('$o//lineitem/@price > \
            %s' passing orddoc as \"o\")"
           (price ()))
  | "Q18" ->
      mk
        (sprintf
           "for $d in %s let $i := $d//lineitem[@price > %s] return \
            <result>{$i}</result>"
           coll (price ()))
  | "Q19" ->
      mk
        (sprintf
           "for $o in %s/order return <result>{$o/lineitem[@price > \
            %s]}</result>"
           coll (price ()))
  | "Q26" ->
      (* a product from the popularity tail, so the result stays small
         and the cost is that of constructing the whole view *)
      mk
        (sprintf
           "let $view := for $i in %s/order/lineitem return <item \
            quantity=\"{$i/quantity}\"><pid>{$i/product/id/data(.)}</pid></item> \
            for $j in $view where $j/pid = 'p%d' return $j"
           coll
           (100 + Workload.Rand.int rng 201))
  | "path" -> mk (sprintf "count(%s/order/lineitem/quantity)" coll)
  | "struct" ->
      (* a predicate-free axis pipeline: a structural join under
         o_struct (wrapped in count() it would walk the trees instead) *)
      mk (sprintf "%s//id/ancestor::lineitem/quantity" coll)
  | "ctor" ->
      (* custid is not indexed: a scan that constructs a few hundred
         elements for serialization *)
      mk
        (sprintf
           "for $o in %s/order where $o/custid < %d return <o \
            id=\"{$o/@id}\">{$o/date}{$o/lineitem/price}</o>"
           coll
           (1100 + Workload.Rand.int rng 200))
  | l -> invalid_arg ("scan_stmt " ^ l)

(* ------------------------------------------------------------------ *)
(* Running a statement in process                                      *)
(* ------------------------------------------------------------------ *)

(** Prepared handles by source text, made before the timed loop. *)
type session = { eng : Engine.t; handles : (string, Engine.stmt) Hashtbl.t }

let session eng = { eng; handles = Hashtbl.create 16 }

let handle s st =
  match Hashtbl.find_opt s.handles st.src with
  | Some h -> h
  | None ->
      let h = Engine.prepare s.eng st.src in
      Hashtbl.add s.handles st.src h;
      h

let run ?txn s st : Engine.outcome =
  if st.vars = [] then Engine.exec ?txn s.eng st.src
  else Engine.execute ?txn ~vars:st.vars (handle s st)

(** The result as the user receives it: serialized. *)
let render (o : Engine.outcome) : int * string =
  match o.Engine.payload with
  | Engine.Items items -> (List.length items, Engine.to_xml items)
  | Engine.Rows { rows; _ } ->
      ( List.length rows,
        String.concat "\n"
          (List.map
             (fun r ->
               String.concat "\t" (List.map Storage.Sql_value.to_display r))
             rows) )
