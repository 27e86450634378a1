(** Random number generation with common distributions.

    A thin layer over {!Splitmix64}. Generators are mutable; derive
    independent sub-streams with {!split} when parallel or order-independent
    sampling is needed. *)

type t

val create : seed:int -> t
(** Fresh generator from an integer seed. *)

val copy : t -> t
(** Independent generator with identical current state. *)

val split : t -> t
(** Child generator with an independent stream; advances the parent once. *)

val split_n : t -> int -> t array
(** [split_n t n] is an array of [n] independent child generators. *)

(** {1 Counter-based keyed streams}

    A {!key} deterministically names a point in seed space. Children are
    derived by index ({!subkey}), so a value drawn from the key path
    [(seed, i, j, ...)] is a pure function of that path — independent of
    the order, number or presence of draws on any other path. Use these
    wherever a consumer must get the same randomness whether or not other
    consumers ran (per-edge channel loss, per-node protocol streams under
    sparse execution). *)

type key = int64

val key : seed:int -> key
(** Root key from an integer seed (finalizer-mixed, so small seeds spread
    over the whole space). *)

val key_of : t -> key
(** Draw a root key from a generator; advances it once. *)

val subkey : key -> int -> key
(** [subkey k i] is the [i]-th child of [k]; chains freely. *)

val of_key : key -> t
(** A fresh sequential generator rooted at the key (for consumers that
    need several draws from one path). *)

val key_unit : key -> float
(** One-shot uniform in [0, 1) from the key; stateless. *)

val key_bernoulli : key -> float -> bool
(** One-shot Bernoulli from the key; stateless. *)

val key_pair_bernoulli : key -> int -> int -> float -> bool
(** [key_pair_bernoulli k a b p] is
    [key_bernoulli (subkey (subkey k a) b) p], bit for bit, without
    allocating: the per-edge draw of a channel plan, keyed by (src, dst). *)

val key_sub_bits : key -> int -> int
(** [key_sub_bits k i] is the 53-bit integer behind
    [key_unit (subkey k i)]: scaled by [2{^-53}] it is that uniform, bit
    for bit. An [int], so the call allocates nothing. *)

val key_pair_bits : key -> int -> int -> int
(** [key_pair_bits k a b] is [key_sub_bits (subkey k a) b] without
    allocating: the bits of a per-edge draw keyed by (src, dst). *)

val key_triple : key -> int -> int -> int -> key
(** [key_triple k a b c] is [subkey (subkey (subkey k a) b) c], boxing
    only the result. *)

val key_int : key -> int -> int
(** One-shot uniform in [0, bound-1] from the key (rejection-sampled, so
    exactly uniform). Raises [Invalid_argument] if [bound <= 0]. *)

val unit : t -> float
(** Uniform in [0, 1). *)

val float : t -> float -> float
(** [float t b] is uniform in [0, b). Raises [Invalid_argument] if [b < 0]. *)

val float_in_range : t -> lo:float -> hi:float -> float
(** Uniform in [lo, hi). *)

val int : t -> int -> int
(** [int t b] is uniform in [0, b-1]. Raises [Invalid_argument] if [b <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform integer in [lo, hi] inclusive. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> rate:float -> float
(** Exponential with the given rate (mean [1/rate]). *)

val gaussian : t -> float
(** Standard normal via Box-Muller. *)

val poisson : t -> mean:float -> int
(** Poisson-distributed count with the given mean. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val permutation : t -> int -> int array
(** Uniform random permutation of [0 .. n-1]. *)
