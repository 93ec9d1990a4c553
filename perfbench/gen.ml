(** Seeded inputs. Everything a workload feeds the engine — documents,
    statement parameters, write payloads — is drawn here from the
    [--seed] argument, so the same seed gives byte-identical inputs. *)

module Og = Workload.Orders_gen
module Rand = Workload.Rand

(** Generator settings shared by every workload. 300 products under the
    generator's Zipf(1.1) popularity leave a long tail of rare ids, which
    is what keeps the product-id probes selective. *)
let params ~seed =
  { Og.default with Og.seed; n_customers = 2000; n_products = 300 }

let orders ~seed n = Og.orders (params ~seed) n
let customers ~seed = Og.customers (params ~seed)
let products ~seed = Og.products (params ~seed)

(** An independent stream per purpose, so adding draws to one stream
    never shifts another. *)
let stream ~seed k = Rand.create ((seed * 7919) + (k * 104729) + 1)

(** A fresh order document numbered [i], for the write path. *)
let order_doc ~seed rng i = Og.order_doc (params ~seed) rng i

(** Uniform in [lo, hi), rounded to 4 decimals so that its literal text
    ["%.4f"] denotes exactly the value a prepared statement binds. *)
let between rng lo hi =
  Float.round ((lo +. (Rand.float rng *. (hi -. lo))) *. 1e4) /. 1e4
