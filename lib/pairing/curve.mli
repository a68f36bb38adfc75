(** The supersingular elliptic curve E : y² = x³ + x over F_p,
    p ≡ 3 (mod 4), with #E(F_p) = p + 1.

    BGN key generation picks p = ℓ·n − 1 so the group has a subgroup of
    composite order n = q₁q₂. Affine representation with an explicit
    point at infinity; scalar multiplication runs in Jacobian coordinates
    internally (one field inversion total instead of one per step). *)

module Z = Sagma_bigint.Bigint

type point =
  | Infinity
  | Affine of Z.t * Z.t

type params = { p : Z.t }
(** The field prime; curve coefficients are fixed (a = 1, b = 0). *)

val make_params : Z.t -> params
(** @raise Invalid_argument unless p ≡ 3 (mod 4). *)

val is_infinity : point -> bool
val equal : point -> point -> bool
val is_on_curve : params -> point -> bool

val neg : params -> point -> point
val add : params -> point -> point -> point
val double : params -> point -> point
val sub : params -> point -> point -> point

val mul : params -> Z.t -> point -> point
(** Scalar multiplication, non-negative scalars. *)

val mul_int : params -> int -> point -> point

val sum_batch : params -> point list array -> point array
(** [sum_batch cp [|l1; ...|]] is the sum of every list, each added up
    in Jacobian coordinates, with one field inversion shared across the
    batch — the cheap way to add many points. *)

val tangent_slope : params -> Z.t -> Z.t -> Z.t
(** Slope of the tangent at an affine point (used by Miller's algorithm,
    which shares one slope between line evaluation and point update). *)

val chord_slope : params -> Z.t -> Z.t -> Z.t -> Z.t -> Z.t
(** Slope of the chord through two points with distinct x. *)

val random_point : params -> Z.rng -> point
(** Uniformly random affine point (never [Infinity]). *)

val serialize : point -> string
(** Injective encoding usable as a hashtable key. *)

val to_string : point -> string
