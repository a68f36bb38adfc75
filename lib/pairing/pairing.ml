(* The modified Tate pairing ê : G × G → μ_n ⊆ F_p²^* on the supersingular
   curve y² = x³ + x.

   [G] is the order-[n] subgroup of E(F_p) where #E(F_p) = p + 1 = ℓ·n.
   The pairing is ê(P, Q) = f_{n,P}(φ(Q))^((p²−1)/n) where φ(x, y) =
   (−x, i·y) is the distortion map into E(F_p²) \ E(F_p), computed with
   Miller's algorithm.

   Denominator elimination: vertical-line values at φ(Q) = (−x_Q, i·y_Q)
   lie in F_p^* (the x-coordinate of φ(Q) is in the base field), and every
   F_p^* value is annihilated by the final exponentiation, because
   (p²−1)/n = (p−1)·(p+1)/n and a^(p−1) = 1. So the Miller loop only
   accumulates the (F_p²-valued) tangent/chord line evaluations.

   The production path is inversion-free: [precompute] walks the Miller
   loop once per left argument in Jacobian coordinates, storing the line
   coefficients (projectively scaled — the F_p^* scale factors are also
   annihilated by the final exponentiation) in Montgomery form, and
   [pairing_prod] evaluates any number of such precomputed lines against
   their right arguments in one interleaved loop with a single shared
   final exponentiation. The original affine loop survives as
   [pairing_affine], the reference the property tests compare against. *)

module Z = Sagma_bigint.Bigint
module M = Z.Mont

type group = {
  p : Z.t;          (* field prime, p = l*n - 1, p ≡ 3 (mod 4) *)
  n : Z.t;          (* order of the pairing subgroup *)
  l : Z.t;          (* cofactor *)
  curve : Curve.params;
  final_exp : Z.t;  (* (p² − 1) / n *)
  mont : M.ctx;     (* Montgomery context for F_p (p is odd by construction) *)
}

(* Construct the group for a given subgroup order [n]: find the smallest
   cofactor ℓ ≡ 0 (mod 4) such that p = ℓ·n − 1 is prime. ℓ ≡ 0 (mod 4)
   forces p ≡ 3 (mod 4) since n is odd. *)
let make_group ?(rng : Z.rng option) (n : Z.t) : group =
  if Z.is_even n then invalid_arg "Pairing.make_group: n must be odd";
  let rng =
    match rng with
    | Some r -> r
    | None ->
      (* Primality testing needs random bases; derive them from n itself so
         group construction is deterministic. *)
      let d = ref 0 in
      fun len ->
        incr d;
        let h = ref (Z.erem n (Z.of_int 1000000007)) in
        String.init len (fun i ->
            h := Z.erem (Z.add (Z.mul_int !h 31) (Z.of_int (i + !d))) (Z.of_int 16777213);
            Char.chr (Z.to_int_exn (Z.erem !h (Z.of_int 256))))
  in
  let rec find l =
    let p = Z.pred (Z.mul (Z.of_int l) n) in
    if Z.is_probable_prime rng p then (Z.of_int l, p) else find (l + 4)
  in
  let l, p = find 4 in
  let final_exp = Z.div (Z.pred (Z.mul p p)) n in
  { p; n; l; curve = Curve.make_params p; final_exp; mont = M.make p }

(* A uniformly random point of order exactly n. Cofactor clearing leaves
   a point whose order divides n; the is_infinity rejection rules out
   order 1, which for prime n already forces order exactly n. For
   composite n the proper divisors can only be excluded knowing the
   factorization, so callers pass the distinct prime factors and each
   candidate is checked to survive multiplication by every n/q. *)
let random_order_n_point ?(factors : Z.t list = []) (g : group) (rng : Z.rng) : Curve.point =
  List.iter
    (fun q ->
      if not (Z.is_zero (Z.erem g.n q)) then
        invalid_arg "Pairing.random_order_n_point: factor does not divide n")
    factors;
  let full_order cand =
    List.for_all
      (fun q -> not (Curve.is_infinity (Curve.mul g.curve (Z.div g.n q) cand)))
      factors
  in
  let rec go () =
    let r = Curve.random_point g.curve rng in
    let cand = Curve.mul g.curve g.l r in
    if Curve.is_infinity cand || not (full_order cand) then go () else cand
  in
  go ()

let m_pairings = Sagma_obs.Metrics.counter "pairing.pairings"
let m_miller_steps = Sagma_obs.Metrics.counter "pairing.miller_steps"
let m_prod_calls = Sagma_obs.Metrics.counter "pairing.prod_calls"

(* --- reference affine path --------------------------------------------------

   One fused Miller step: the line through [t] and [u] (tangent when they
   coincide) evaluated at φ(Q), together with t + u — sharing the single
   slope inversion between the line value and the point update. Vertical
   lines return no line factor (eliminated by the final exponentiation). *)
let miller_step (g : group) (t : Curve.point) (u : Curve.point) ~(xq : Z.t) ~(yq : Z.t) :
    Fp2.t option * Curve.point =
  let p = g.p in
  match (t, u) with
  | Curve.Infinity, v | v, Curve.Infinity -> (None, v)
  | Curve.Affine (x1, y1), Curve.Affine (x2, y2) ->
    let doubling = Z.equal x1 x2 && Z.equal y1 y2 in
    if Z.equal x1 x2 && not doubling then (None, Curve.Infinity)
    else if doubling && Z.is_zero y1 then (None, Curve.Infinity)
    else begin
      let l =
        if doubling then Curve.tangent_slope g.curve x1 y1
        else Curve.chord_slope g.curve x1 y1 x2 y2
      in
      let x3 = Z.erem (Z.sub (Z.sub (Z.mul l l) x1) x2) p in
      let y3 = Z.erem (Z.sub (Z.mul l (Z.sub x1 x3)) y1) p in
      (* l(φQ) with x_φQ = −xq ∈ F_p and y_φQ = yq·i. *)
      let re = Z.erem (Z.sub (Z.neg y1) (Z.mul l (Z.sub (Z.neg xq) x1))) p in
      (Some { Fp2.re; im = yq }, Curve.Affine (x3, y3))
    end

(* Miller's algorithm computing f_{n,P}(φ(Q)) in affine coordinates (one
   field inversion per step), followed by the final exponentiation. *)
let pairing_affine (g : group) (pp : Curve.point) (qq : Curve.point) : Fp2.t =
  match (pp, qq) with
  | Curve.Infinity, _ | _, Curve.Infinity -> Fp2.one
  | Curve.Affine _, Curve.Affine (xq, yq) ->
    Sagma_obs.Metrics.incr m_pairings;
    let p = g.p in
    let f = ref Fp2.one in
    let t = ref pp in
    let steps = ref 0 in
    let nbits = Z.num_bits g.n in
    for i = nbits - 2 downto 0 do
      f := Fp2.sqr ~p !f;
      let lv, t2 = miller_step g !t !t ~xq ~yq in
      (match lv with Some lv -> f := Fp2.mul ~p !f lv | None -> ());
      t := t2;
      incr steps;
      if Z.bit g.n i then begin
        let lv, t3 = miller_step g !t pp ~xq ~yq in
        (match lv with Some lv -> f := Fp2.mul ~p !f lv | None -> ());
        t := t3;
        incr steps
      end
    done;
    Sagma_obs.Metrics.add m_miller_steps !steps;
    Fp2.pow ~p !f g.final_exp

(* --- fixed-argument precomputation ------------------------------------------

   The Miller loop's point ladder depends only on the left argument P and
   the (fixed) loop schedule of n, never on Q. [precompute] runs that
   ladder once, in Jacobian coordinates (zero inversions), emitting for
   every step the coefficients (c0, cx, cy) of the projectively scaled
   line value  c0 + cx·x_Q + cy·y_Q·i  at φ(Q) = (−x_Q, i·y_Q). The scale
   factors live in F_p^* and are annihilated by the final exponentiation,
   so evaluating these lines is exactly equivalent to the affine loop.
   Coefficients are stored in Montgomery form: [pairing_prod] never
   leaves Montgomery residues until its final conversion. *)

module Precomp = struct
  type line = { c0 : M.el; cx : M.el; cy : M.el }

  type t = {
    point : Curve.point;         (* the fixed left argument *)
    lines : line option array;   (* one slot per Miller step; None = vertical *)
  }

  let point (t : t) = t.point
end

let precompute (g : group) (pp : Curve.point) : Precomp.t =
  match pp with
  | Curve.Infinity -> { Precomp.point = pp; lines = [||] }
  | Curve.Affine (xp, yp) ->
    let p = g.p in
    let mc = g.mont in
    let lines = ref [] in
    let emit = function
      | None -> lines := None :: !lines
      | Some (c0, cx, cy) ->
        lines :=
          Some { Precomp.c0 = M.of_z mc c0; cx = M.of_z mc cx; cy = M.of_z mc cy } :: !lines
    in
    (* T = (tx, ty, tz) Jacobian, (X/Z², Y/Z³); tz = 0 encodes O. *)
    let tx = ref xp and ty = ref yp and tz = ref Z.one in
    let set_infinity () =
      tx := Z.one;
      ty := Z.one;
      tz := Z.zero
    in
    (* Doubling step. Slope λ = M/Z3; the tangent at T evaluated at φ(Q),
       scaled by Z3·Z1Z1 ∈ F_p^*, is
         (M·X1 − 2A) + M·Z1Z1·x_Q + Z3·Z1Z1·y_Q·i.  *)
    let dbl () =
      if Z.is_zero !tz || Z.is_zero !ty then begin
        emit None;
        set_infinity ()
      end
      else begin
        let x1 = !tx and y1 = !ty and z1 = !tz in
        let a = Z.mulm y1 y1 p in
        let s = Z.erem (Z.shift_left (Z.mul x1 a) 2) p in
        let z1z1 = Z.mulm z1 z1 p in
        let m = Z.erem (Z.add (Z.mul_int (Z.mul x1 x1) 3) (Z.mul z1z1 z1z1)) p in
        let x3 = Z.erem (Z.sub (Z.mul m m) (Z.shift_left s 1)) p in
        let y3 = Z.erem (Z.sub (Z.mul m (Z.sub s x3)) (Z.shift_left (Z.mul a a) 3)) p in
        let z3 = Z.erem (Z.shift_left (Z.mul y1 z1) 1) p in
        let c0 = Z.erem (Z.sub (Z.mul m x1) (Z.shift_left a 1)) p in
        let cx = Z.mulm m z1z1 p in
        let cy = Z.mulm z3 z1z1 p in
        emit (Some (c0, cx, cy));
        tx := x3;
        ty := y3;
        tz := z3
      end
    in
    (* Mixed addition step T := T + P. Slope λ = R/Z3; the chord,
       anchored at the affine P and scaled by Z3 ∈ F_p^*, is
         (R·x_P − Z3·y_P) + R·x_Q + Z3·y_Q·i.  *)
    let add_p () =
      if Z.is_zero !tz then begin
        (* T = O: no line, the sum is just P (mirrors the affine step). *)
        emit None;
        tx := xp;
        ty := yp;
        tz := Z.one
      end
      else begin
        let x1 = !tx and y1 = !ty and z1 = !tz in
        let z1z1 = Z.mulm z1 z1 p in
        let u2 = Z.mulm xp z1z1 p in
        let s2 = Z.mulm yp (Z.mulm z1 z1z1 p) p in
        let h = Z.subm u2 x1 p in
        let r = Z.subm s2 y1 p in
        if Z.is_zero h then begin
          if Z.is_zero r then
            (* T = P mid-loop (small-order points): the chord degenerates
               to the tangent, exactly the affine fallback. *)
            dbl ()
          else begin
            (* Vertical line: F_p-valued at φ(Q), eliminated. *)
            emit None;
            set_infinity ()
          end
        end
        else begin
          let h2 = Z.mulm h h p in
          let h3 = Z.mulm h2 h p in
          let x1h2 = Z.mulm x1 h2 p in
          let x3 = Z.erem (Z.sub (Z.sub (Z.mul r r) h3) (Z.shift_left x1h2 1)) p in
          let y3 = Z.erem (Z.sub (Z.mul r (Z.sub x1h2 x3)) (Z.mul y1 h3)) p in
          let z3 = Z.mulm z1 h p in
          let c0 = Z.erem (Z.sub (Z.mul r xp) (Z.mul z3 yp)) p in
          emit (Some (c0, r, z3));
          tx := x3;
          ty := y3;
          tz := z3
        end
      end
    in
    let nbits = Z.num_bits g.n in
    for i = nbits - 2 downto 0 do
      dbl ();
      if Z.bit g.n i then add_p ()
    done;
    { Precomp.point = pp; lines = Array.of_list (List.rev !lines) }

(* --- multi-pairing ----------------------------------------------------------

   F_p² arithmetic on Montgomery residues (i² = −1 since p ≡ 3 (mod 4)). *)

type mfp2 = { mre : M.el; mim : M.el }

let mfp2_mul mc a b =
  let rr = M.mul mc a.mre b.mre and ii = M.mul mc a.mim b.mim in
  let ri = M.mul mc a.mre b.mim and ir = M.mul mc a.mim b.mre in
  { mre = M.sub mc rr ii; mim = M.add mc ri ir }

let mfp2_sqr mc a =
  (* (a+bi)² = (a−b)(a+b) + 2ab·i — two multiplications. *)
  let s = M.add mc a.mre a.mim and d = M.sub mc a.mre a.mim in
  { mre = M.mul mc s d; mim = M.mul mc (M.add mc a.mre a.mre) a.mim }

let mfp2_one mc = { mre = M.one mc; mim = M.zero mc }

let mfp2_pow mc a e =
  let nbits = Z.num_bits e in
  let acc = ref (mfp2_one mc) in
  for i = nbits - 1 downto 0 do
    acc := mfp2_sqr mc !acc;
    if Z.bit e i then acc := mfp2_mul mc !acc a
  done;
  !acc

(* Final exponentiation f ↦ f^((p²−1)/n) for a batch of Miller values.
   Since p + 1 = ℓ·n, the exponent is (p − 1)·ℓ, and the Frobenius
   f^p = conj f (p ≡ 3 mod 4) gives f^(p−1) = conj f · f⁻¹ = (conj f)²/N(f)
   with N(f) = re² + im² ∈ F_p^*. So each element costs one F_p inversion
   — shared across the batch by Montgomery's trick — and a |ℓ|-bit power,
   instead of a ~|p|-bit one. *)
let final_exp_batch (g : group) (fs : mfp2 array) : Fp2.t array =
  let mc = g.mont in
  let norms =
    Array.map (fun f -> M.to_z mc (M.add mc (M.mul mc f.mre f.mre) (M.mul mc f.mim f.mim))) fs
  in
  let inv_norms = Z.invm_batch norms g.p in
  Array.mapi
    (fun i f ->
      let c = mfp2_sqr mc { mre = f.mre; mim = M.sub mc (M.zero mc) f.mim } in
      let s = M.of_z mc inv_norms.(i) in
      let r = mfp2_pow mc { mre = M.mul mc c.mre s; mim = M.mul mc c.mim s } g.l in
      { Fp2.re = M.to_z mc r.mre; im = M.to_z mc r.mim })
    fs

(* Product of pairings Π ê(P_i, Q_i) with a single interleaved Miller
   loop and one shared final exponentiation. All pairs share the loop
   schedule (the bits of n), so the accumulator squares once per step
   regardless of the number of pairs:  (Π f_i)² · Π l_i = Π (f_i² · l_i).
   Pairs with an infinity on either side contribute the factor 1. *)
let pairing_prod (g : group) (pairs : (Precomp.t * Curve.point) list) : Fp2.t =
  let mc = g.mont in
  let live =
    List.filter_map
      (fun ((pc : Precomp.t), q) ->
        match (pc.Precomp.point, q) with
        | Curve.Infinity, _ | _, Curve.Infinity -> None
        | Curve.Affine _, Curve.Affine (xq, yq) ->
          Some (pc.Precomp.lines, M.of_z mc xq, M.of_z mc yq))
      pairs
  in
  match live with
  | [] -> Fp2.one
  | _ :: _ ->
    let nlive = List.length live in
    Sagma_obs.Metrics.incr m_prod_calls;
    Sagma_obs.Metrics.add m_pairings nlive;
    let f = ref (mfp2_one mc) in
    let idx = ref 0 in
    let steps = ref 0 in
    let step () =
      let i = !idx in
      List.iter
        (fun (lines, mxq, myq) ->
          match lines.(i) with
          | None -> ()
          | Some { Precomp.c0; cx; cy } ->
            let re = M.add mc c0 (M.mul mc cx mxq) in
            let im = M.mul mc cy myq in
            f := mfp2_mul mc !f { mre = re; mim = im })
        live;
      incr idx;
      incr steps
    in
    let nbits = Z.num_bits g.n in
    for i = nbits - 2 downto 0 do
      f := mfp2_sqr mc !f;
      step ();
      if Z.bit g.n i then step ()
    done;
    Sagma_obs.Metrics.add m_miller_steps (!steps * nlive);
    (final_exp_batch g [| !f |]).(0)

(* Miller values f_{n,P}(φ(Q_j)) of one precomputed left argument for
   every (Montgomery-form) right argument, advancing in lockstep over
   P's shared line list. *)
let miller_values (g : group) (pc : Precomp.t) (rights : (M.el * M.el) array) : mfp2 array =
  let mc = g.mont in
  let fs = Array.make (Array.length rights) (mfp2_one mc) in
  let lines = pc.Precomp.lines in
  let idx = ref 0 in
  let step () =
    (match lines.(!idx) with
     | None -> ()
     | Some { Precomp.c0; cx; cy } ->
       Array.iteri
         (fun k (mxq, myq) ->
           let l = { mre = M.add mc c0 (M.mul mc cx mxq); mim = M.mul mc cy myq } in
           fs.(k) <- mfp2_mul mc fs.(k) l)
         rights);
    incr idx
  in
  let nbits = Z.num_bits g.n in
  for i = nbits - 2 downto 0 do
    Array.iteri (fun k f -> fs.(k) <- mfp2_sqr mc f) fs;
    step ();
    if Z.bit g.n i then step ()
  done;
  Sagma_obs.Metrics.add m_miller_steps (!idx * Array.length rights);
  fs

(* Separate pairings ê(P_i, Q_ij) for a batch of left arguments, each
   against its own right arguments. Each P_i's Miller lines are
   precomputed once and dropped after its Miller values; every final
   exponentiation of the batch shares one inversion. Pairs with an
   infinity on either side are 1. *)
let pairing_many (g : group) (jobs : (Curve.point * Curve.point array) array) : Fp2.t array array =
  let mc = g.mont in
  let live = ref [] in
  Array.iteri
    (fun i (pp, qs) ->
      let rights =
        List.filter_map
          (fun j ->
            match qs.(j) with
            | Curve.Infinity -> None
            | Curve.Affine (xq, yq) -> Some (j, (M.of_z mc xq, M.of_z mc yq)))
          (List.init (Array.length qs) Fun.id)
      in
      if rights <> [] && not (Curve.is_infinity pp) then begin
        let fs = miller_values g (precompute g pp) (Array.of_list (List.map snd rights)) in
        List.iteri (fun k (j, _) -> live := (i, j, fs.(k)) :: !live) rights
      end)
    jobs;
  let out = Array.map (fun (_, qs) -> Array.make (Array.length qs) Fp2.one) jobs in
  let live = Array.of_list !live in
  if Array.length live > 0 then begin
    Sagma_obs.Metrics.incr m_prod_calls;
    Sagma_obs.Metrics.add m_pairings (Array.length live);
    let values = final_exp_batch g (Array.map (fun (_, _, f) -> f) live) in
    Array.iteri (fun k (i, j, _) -> out.(i).(j) <- values.(k)) live
  end;
  out

(* The scalar entry point, kept source-compatible: one precomputation,
   one pair, one final exponentiation. Callers that pair against the
   same left argument repeatedly should hold a [Precomp.t] instead. *)
let pairing (g : group) (pp : Curve.point) (qq : Curve.point) : Fp2.t =
  pairing_prod g [ (precompute g pp, qq) ]

(* G_T helpers (the pairing target group μ_n ⊂ F_p²). *)
let gt_mul (g : group) a b = Fp2.mul ~p:g.p a b
let gt_sqr (g : group) a = Fp2.sqr ~p:g.p a
let gt_inv (g : group) a = Fp2.inv ~p:g.p a
let gt_pow (g : group) a e = Fp2.pow ~p:g.p a (Z.erem e g.n)
let gt_one = Fp2.one
let gt_equal = Fp2.equal
