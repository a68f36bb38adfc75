(* Differential property for Scheme.aggregate: its encoded Aggregates
   reply must be byte-identical to a reference that evaluates Algorithm 5
   literally — every row paired with its own unit shift
   S_r = a₀·g + Σᵢ aᵢ·M_{r,i}, built with plain curve arithmetic — over
   joint buckets derived from the plaintext and the client's mappings.

   Random Dbgen tables and queries (B ∈ {1,2,3}, arity 1..t, SUM, COUNT
   and AVG, WHERE filters), each under both count modes (level-1 and
   paired, the latter forced by dummy rows). Checked cold, warm, after
   an Append that leaves old rows warm and the new row cold, and as two
   ?owned halves of a fresh table, aggregated on a worker pool and
   ⊕-merged with merge_agg_results. *)

module Z = Sagma_bigint.Bigint
module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Drbg = Sagma_crypto.Drbg
module Dbgen = Sagma_prop.Dbgen
module R = Sagma_prop.Runner
module Protocol = Sagma_protocol.Protocol
open Sagma
module Bgn = Scheme.Bgn
module Curve = Scheme.Curve

let scenario_arb =
  R.arbitrary ~shrink:Dbgen.scenario_shrink ~print:Dbgen.print_scenario
    (Dbgen.scenario_gen ~max_rows:8 ~max_queries:2 ())

(* One worker plus the caller: buckets of four or more rows are split
   into chunks whose partial sums are merged. *)
let pool =
  let p = Sagma_pool.Pool.create ~name:"prop-aggregate" ~workers:1 () in
  at_exit (fun () -> Sagma_pool.Pool.shutdown p);
  p

(* What the reference needs of a row besides its ciphertexts. *)
type plain = {
  groups : Value.t array;                (* config order *)
  filters : (string * Value.t) list option;  (* None for dummy rows *)
}

let config_of (sc : Dbgen.scenario) =
  Config.make ~bucket_size:sc.bucket_size ~max_group_attrs:sc.max_group_attrs
    ~filter_columns:(List.map fst sc.filter_domains) ~value_columns:sc.value_columns
    ~group_columns:(List.map fst sc.group_domains) ()

let split (sc : Dbgen.scenario) (row : Value.t array) =
  let nv = List.length sc.value_columns and ng = List.length sc.group_domains in
  let values = Array.init nv (fun i -> Value.as_int row.(i)) in
  let groups = Array.sub row nv ng in
  let filters = List.mapi (fun i (col, _) -> (col, row.(nv + ng + i))) sc.filter_domains in
  (values, groups, filters)

let passes (where : (string * Value.t) list) (p : plain) =
  where = []
  || match p.filters with
     | None -> false
     | Some fs ->
       List.for_all
         (fun (col, v) ->
           match List.assoc_opt col fs with
           | Some w -> Value.encode w = Value.encode v
           | None -> false)
         where

(* Algorithm 5 as written: per row and block, the unit shift from the
   indicator coefficients, then one product of pairings per (block,
   channel) accumulator. *)
let reference ?(owned = fun _ -> true) (c : Scheme.client) (et : Scheme.enc_table)
    (plain : plain array) (q : Query.t) (tok : Scheme.token) : Scheme.agg_result =
  let pp = c.Scheme.pp in
  let pk = pp.Scheme.bgn_pk in
  let n = Bgn.n pk in
  let curve = pk.Bgn.group.Sagma_pairing.Pairing.curve in
  let bucket_size = pp.Scheme.config.Config.bucket_size in
  let arity = Array.length tok.Scheme.group_columns in
  let num_blocks = int_of_float (float_of_int bucket_size ** float_of_int arity) in
  let shift (row : Scheme.enc_row) bi =
    List.fold_left
      (fun acc { Polynomial.exponents; coeff } ->
        let m =
          if Array.for_all (( = ) 0) exponents then pk.Bgn.g
          else
            row.Scheme.monomial_cts.(Monomials.position pp.Scheme.monomials
                                       (Monomials.lift_exponents pp.Scheme.monomials
                                          ~query_columns:tok.Scheme.group_columns exponents))
        in
        Curve.add curve acc (Curve.mul curve (Z.erem coeff n) m))
      Curve.Infinity
      (Polynomial.multivariate_indicator ~n ~bucket_size
         (Scheme.block_vector ~bucket_size ~arity bi))
  in
  let by_bucket = Hashtbl.create 16 in
  Array.iteri
    (fun r p ->
      if passes q.Query.where p && owned r then begin
        let key =
          Array.map (fun col -> Mapping.bucket c.Scheme.mappings.(col) p.groups.(col))
            tok.Scheme.group_columns
        in
        Hashtbl.replace by_bucket key (r :: Option.value (Hashtbl.find_opt by_bucket key) ~default:[])
      end)
    plain;
  let buckets =
    Hashtbl.fold (fun k rows acc -> (k, List.rev rows) :: acc) by_bucket []
    |> List.sort compare
    |> List.map (fun (bucket_ids, rows) ->
           let rows = List.map (fun r -> et.Scheme.rows.(r)) rows in
           let shifts = Array.init num_blocks (fun bi -> List.map (fun row -> shift row bi) rows) in
           let paired left bi = Bgn.mul_many pk (List.map2 (fun row s -> (left row, s)) rows shifts.(bi)) in
           let sums =
             Option.map
               (fun vcol ->
                 Array.init num_blocks (fun bi ->
                     Array.init (Scheme.Crt.channels pp.Scheme.channels) (fun ch ->
                         paired (fun row -> row.Scheme.values.(vcol).(ch)) bi)))
               tok.Scheme.value_column
           in
           let counts_l1, counts_l2 =
             match et.Scheme.count_mode with
             | Scheme.Count_level1 ->
               ( Some
                   (Array.init num_blocks (fun bi ->
                        List.fold_left (Curve.add curve) Curve.Infinity shifts.(bi))),
                 None )
             | Scheme.Count_paired ->
               (None, Some (Array.init num_blocks (paired (fun row -> row.Scheme.count_ct))))
           in
           { Scheme.bucket_ids; group_size = List.length rows;
             blocks = { Scheme.sums; counts_l1; counts_l2 } })
  in
  { Scheme.buckets;
    touched_rows = List.fold_left (fun acc b -> acc + b.Scheme.group_size) 0 buckets }

let encode agg = Protocol.encode_response (Protocol.Aggregates agg)

let same what q want got =
  encode want = encode got
  || begin
    Printf.printf "    %s: %s differs from the per-row-shift reference\n" (Query.to_sql q) what;
    false
  end

(* One scenario under one count mode. *)
let check_mode (sc : Dbgen.scenario) ~(dummies : bool) =
  let client =
    Scheme.setup (config_of sc) ~domains:sc.group_domains
      (Drbg.create (if dummies then "prop-aggregate-dummies" else "prop-aggregate"))
  in
  let dummy_groups =
    if dummies then [ Array.of_list (List.map (fun (_, dom) -> List.hd dom) sc.group_domains) ]
    else []
  in
  let plain_rows =
    Array.of_list
      (List.map
         (fun row ->
           let _, groups, filters = split sc row in
           { groups; filters = Some filters })
         sc.rows
      @ List.map (fun groups -> { groups; filters = None }) dummy_groups)
  in
  let encrypt () = Scheme.encrypt_table ~dummy_groups client sc.table in
  let et = encrypt () in
  let toks = List.map (fun q -> (q, Scheme.token client q)) sc.queries in
  let each et plain label f =
    List.for_all (fun (q, tok) -> same label q (reference client et plain q tok) (f et tok)) toks
  in
  let aggregate et tok = Scheme.aggregate et tok in
  (* Appending a copy of the first row (or a fresh one) keeps its group
     and filter values inside the declared domains. *)
  let values, groups, filters =
    match sc.rows with
    | row :: _ -> split sc row
    | [] ->
      ( Array.make (List.length sc.value_columns) 7,
        Array.of_list (List.map (fun (_, dom) -> List.hd dom) sc.group_domains),
        List.map (fun (col, dom) -> (col, List.hd dom)) sc.filter_domains )
  in
  let appended = Scheme.append_row client et ~values ~groups ~filters in
  let plain_appended = Array.append plain_rows [| { groups; filters = Some filters } |] in
  let halves et tok =
    let half parity =
      Scheme.aggregate ~pool ~owned:(fun r -> r mod 2 = parity) et tok
    in
    Scheme.merge_agg_results client.Scheme.pp.Scheme.bgn_pk [ half 0; half 1 ]
  in
  each et plain_rows "cold" aggregate
  && each et plain_rows "warm" aggregate
  && each appended plain_appended "after Append" aggregate
  && each (encrypt ()) plain_rows "merged ?owned halves" halves

let t_bilinear =
  R.test ~count:6 ~name:"aggregate = per-row-shift reference (bytes)" scenario_arb (fun sc ->
      check_mode sc ~dummies:false && check_mode sc ~dummies:true)

let () = R.run ~suite:"test_prop_aggregate" [ t_bilinear ]
