(* The Boneh–Goh–Nissim somewhat homomorphic encryption scheme (TCC'05).

   Plaintexts live in Z_n with n = q1·q2. Level-1 ciphertexts are points
   of the order-n curve subgroup G: Enc(m) = m·g + r·h where h generates
   the order-q1 subgroup. One ciphertext–ciphertext multiplication is
   available via the pairing, landing in the target group G_T ⊂ F_p²
   (level 2), which remains additively homomorphic.

   Decryption raises to the power q1 (killing the blinding subgroup) and
   solves a discrete log, so decryptable plaintexts must come from a
   small, known range — exactly the constraint the paper's CRT channels
   (Hu et al., ACNS'12) work around. *)

module Z = Sagma_bigint.Bigint
module Curve = Sagma_pairing.Curve
module Fp2 = Sagma_pairing.Fp2
module Pairing = Sagma_pairing.Pairing
module Drbg = Sagma_crypto.Drbg

type public_key = {
  group : Pairing.group;
  g : Curve.point;   (* generator of G, order n *)
  h : Curve.point;   (* generator of the order-q1 blinding subgroup *)
  e_gg : Fp2.t;      (* ê(g, g): level-2 generator *)
  e_gh : Fp2.t;      (* ê(g, h): level-2 blinding generator *)
}

type secret_key = { q1 : Z.t; q2 : Z.t }

type keypair = { pk : public_key; sk : secret_key }

(* Level-1 ciphertext: a curve point. *)
type c1 = Curve.point

(* Level-2 ciphertext: an element of G_T. *)
type c2 = Fp2.t

let n (pk : public_key) = pk.group.Pairing.n

(* [keygen ~bits drbg] generates a key with an n of roughly [bits] bits
   (two primes of bits/2 each). The paper instantiates 1024-bit n for
   ~80-bit security; tests and default benches use smaller sizes. *)
let keygen ~(bits : int) (drbg : Drbg.t) : keypair =
  if bits < 16 then invalid_arg "Bgn.keygen: modulus too small";
  let rng = Drbg.rng drbg in
  let half = bits / 2 in
  let q1 = Z.random_prime rng ~bits:half in
  let rec distinct () =
    let q2 = Z.random_prime rng ~bits:(bits - half) in
    if Z.equal q1 q2 then distinct () else q2
  in
  let q2 = distinct () in
  let group = Pairing.make_group ~rng (Z.mul q1 q2) in
  let curve = group.Pairing.curve in
  (* Points of order exactly n = q1·q2: the sampler rejects candidates
     either prime factor kills, given the factorization. *)
  let order_n () = Pairing.random_order_n_point ~factors:[ q1; q2 ] group rng in
  let g = order_n () in
  let u = order_n () in
  let h = Curve.mul curve q2 u in
  (* One precomputation of g serves both cached level-2 generators. *)
  let pre_g = Pairing.precompute group g in
  let e_gg = Pairing.pairing_prod group [ (pre_g, g) ] in
  let e_gh = Pairing.pairing_prod group [ (pre_g, h) ] in
  { pk = { group; g; h; e_gg; e_gh }; sk = { q1; q2 } }

let random_blinding (pk : public_key) (drbg : Drbg.t) : Z.t =
  Z.random_below (Drbg.rng drbg) (n pk)

(* Operation counters: the quantities the paper's cost analysis (§3.4,
   §6) is expressed in. *)
module Metrics = Sagma_obs.Metrics

let m_enc1 = Metrics.counter "bgn.enc1"
let m_enc2 = Metrics.counter "bgn.enc2"
let m_add1 = Metrics.counter "bgn.add1"
let m_add2 = Metrics.counter "bgn.add2"
let m_smul1 = Metrics.counter "bgn.smul1"
let m_smul2 = Metrics.counter "bgn.smul2"
let m_mul = Metrics.counter "bgn.mul"

(* --- level 1 ------------------------------------------------------------ *)

let enc1 (pk : public_key) (drbg : Drbg.t) (m : Z.t) : c1 =
  Metrics.incr m_enc1;
  let curve = pk.group.Pairing.curve in
  let r = random_blinding pk drbg in
  Curve.add curve (Curve.mul curve (Z.erem m (n pk)) pk.g) (Curve.mul curve r pk.h)

let enc1_int pk drbg m = enc1 pk drbg (Z.of_int m)

let add1 (pk : public_key) (a : c1) (b : c1) : c1 =
  Metrics.incr m_add1;
  Curve.add pk.group.Pairing.curve a b

let neg1 (pk : public_key) (a : c1) : c1 = Curve.neg pk.group.Pairing.curve a

(* Many level-1 sums at once: one field inversion for the batch instead
   of one per addition. [bgn.add1] counts the additions. *)
let sum1_batch (pk : public_key) (lists : c1 list array) : c1 array =
  Metrics.add m_add1 (Array.fold_left (fun acc l -> acc + max 0 (List.length l - 1)) 0 lists);
  Curve.sum_batch pk.group.Pairing.curve lists

(* [signed pk k] is (negate, m) with m ≡ ±k (mod n) the representative
   of least magnitude: scaling by k > n/2 is scaling by n − k, then
   negating. Ciphertexts have order dividing n, so the two agree, and
   small negative coefficients (−1 mod n above all) become cheap. *)
let signed (pk : public_key) (k : Z.t) : bool * Z.t =
  let k = Z.erem k (n pk) in
  let nk = Z.sub (n pk) k in
  if Z.lt nk k then (true, nk) else (false, k)

(* Multiply a ciphertext by a plaintext scalar (the ⊗-by-plaintext the
   paper uses for polynomial coefficients). *)
let smul1 (pk : public_key) (k : Z.t) (a : c1) : c1 =
  Metrics.incr m_smul1;
  let negate, m = signed pk k in
  let r = if Z.equal m Z.one then a else Curve.mul pk.group.Pairing.curve m a in
  if negate then neg1 pk r else r

let zero1 : c1 = Curve.Infinity

let rerandomize1 (pk : public_key) (drbg : Drbg.t) (a : c1) : c1 =
  let curve = pk.group.Pairing.curve in
  Curve.add curve a (Curve.mul curve (random_blinding pk drbg) pk.h)

(* --- level 2 ------------------------------------------------------------ *)

let enc2 (pk : public_key) (drbg : Drbg.t) (m : Z.t) : c2 =
  Metrics.incr m_enc2;
  let p = pk.group.Pairing.p in
  let r = random_blinding pk drbg in
  Fp2.mul ~p (Fp2.pow ~p pk.e_gg (Z.erem m (n pk))) (Fp2.pow ~p pk.e_gh r)

let add2 (pk : public_key) (a : c2) (b : c2) : c2 =
  Metrics.incr m_add2;
  Fp2.mul ~p:pk.group.Pairing.p a b

(* Level-2 ciphertexts lie in μ_n, where conjugation is inversion. *)
let smul2 (pk : public_key) (k : Z.t) (a : c2) : c2 =
  Metrics.incr m_smul2;
  let p = pk.group.Pairing.p in
  let negate, m = signed pk k in
  let r = if Z.equal m Z.one then a else Fp2.pow ~p a m in
  if negate then Fp2.conj ~p r else r

let zero2 : c2 = Fp2.one

let rerandomize2 (pk : public_key) (drbg : Drbg.t) (a : c2) : c2 =
  let p = pk.group.Pairing.p in
  Fp2.mul ~p a (Fp2.pow ~p pk.e_gh (random_blinding pk drbg))

(* The one ciphertext–ciphertext multiplication: G × G → G_T. *)
let mul (pk : public_key) (a : c1) (b : c1) : c2 =
  Metrics.incr m_mul;
  Pairing.pairing pk.group a b

(* --- batched multiplication ----------------------------------------------

   A level-2 sum Σ aᵢ·bᵢ is a product of pairings, so the whole batch
   shares one interleaved Miller loop and a single final exponentiation
   instead of paying one per term. The precomputed variant additionally
   skips the per-term Miller ladder for left arguments that repeat
   across calls. [mul_each] computes separate products instead, sharing
   one ladder per left argument (SAGMA pairs each encrypted value with
   all of its row's monomials). Counters: [bgn.mul] advances by the
   number of products — the same as calling {!mul} termwise — so cost
   models are unchanged. *)

type precomp1 = Pairing.Precomp.t

let precompute1 (pk : public_key) (a : c1) : precomp1 = Pairing.precompute pk.group a

let mul_many_pre (pk : public_key) (pairs : (precomp1 * c1) list) : c2 =
  Metrics.add m_mul (List.length pairs);
  Pairing.pairing_prod pk.group pairs

let mul_each (pk : public_key) (jobs : (c1 * c1 array) array) : c2 array array =
  Metrics.add m_mul (Array.fold_left (fun acc (_, bs) -> acc + Array.length bs) 0 jobs);
  Pairing.pairing_many pk.group jobs

let mul_many (pk : public_key) (pairs : (c1 * c1) list) : c2 =
  Metrics.add m_mul (List.length pairs);
  Pairing.pairing_prod pk.group
    (List.map (fun (a, b) -> (Pairing.precompute pk.group a, b)) pairs)

(* --- decryption ----------------------------------------------------------

   Decryption tables are exposed so callers can reuse them: one SAGMA
   query decrypts many components under the same base. *)

type dec1_table = Curve.point Dlog.table

type dec2_table = Fp2.t Dlog.table

let curve_ops (pk : public_key) : Curve.point Dlog.ops =
  let curve = pk.group.Pairing.curve in
  { Dlog.mul = Curve.add curve;
    inv = Curve.neg curve;
    one = Curve.Infinity;
    serialize = Curve.serialize }

let gt_ops (pk : public_key) : Fp2.t Dlog.ops =
  let p = pk.group.Pairing.p in
  { Dlog.mul = Fp2.mul ~p;
    (* In μ_n ⊂ F_p²  conjugation is inversion: x^p = x⁻¹ since n | p+1. *)
    inv = Fp2.conj ~p;
    one = Fp2.one;
    serialize = Fp2.serialize }

let make_dec1_table (kp : keypair) ~(max : int) : dec1_table =
  let curve = kp.pk.group.Pairing.curve in
  let base = Curve.mul curve kp.sk.q1 kp.pk.g in
  Dlog.make (curve_ops kp.pk) base ~max

let dec1 (kp : keypair) (table : dec1_table) ~(max : int) (c : c1) : int option =
  let curve = kp.pk.group.Pairing.curve in
  Dlog.solve table (Curve.mul curve kp.sk.q1 c) ~max

let make_dec2_table (kp : keypair) ~(max : int) : dec2_table =
  let p = kp.pk.group.Pairing.p in
  let base = Fp2.pow ~p kp.pk.e_gg kp.sk.q1 in
  Dlog.make (gt_ops kp.pk) base ~max

let dec2 (kp : keypair) (table : dec2_table) ~(max : int) (c : c2) : int option =
  let p = kp.pk.group.Pairing.p in
  Dlog.solve table (Fp2.pow ~p c kp.sk.q1) ~max

(* One-shot decryption helpers (build a throwaway table). *)
let dec1_once (kp : keypair) ~(max : int) (c : c1) : int option =
  dec1 kp (make_dec1_table kp ~max) ~max c

let dec2_once (kp : keypair) ~(max : int) (c : c2) : int option =
  dec2 kp (make_dec2_table kp ~max) ~max c
