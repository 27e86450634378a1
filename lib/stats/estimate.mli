(** Statistics-grade estimation over replicated measurements: empirical
    distributions with right-censored observations, keyed percentile
    bootstrap confidence intervals, and two-sample comparisons.

    {2 Censoring}

    A right-censored observation records only a lower bound: "the run hit
    the round cap at [v] still unstabilized" means the true stabilization
    time is [>= v]. Every statistic below is computed on the {e bound
    completion} (censored observations standing at their bounds), which
    makes it an exact value when the distribution carries no censoring and
    a {e lower bound} on the true statistic otherwise. {!quantile} refines
    this: it reports [Some] exactly when the order statistic is invariant
    under every completion of the censored values, so callers can tell a
    measured quantile from a bounded one.

    {2 Keyed bootstrap}

    Bootstrap resampling consumes no sequential generator: resample [b]'s
    [i]-th draw is a pure function of [(key, b, i)] through
    {!Ss_prng.Rng.subkey}/{!Ss_prng.Rng.key_int}. Two calls with the same
    key and data yield bit-identical intervals regardless of evaluation
    order, domain count or any other consumer of randomness — the same
    discipline the engine's channel sampling follows (DESIGN §14). *)

type obs = { value : float; censored : bool }
(** One observation; [censored] means the true value is [>= value]. *)

val exact : float -> obs
val censored : float -> obs

type t
(** An empirical distribution (immutable once built). *)

val of_obs : obs list -> t
val of_values : float list -> t
(** All observations exact. *)

val count : t -> int
val censored_count : t -> int
val values : t -> float array
(** The bound completion, ascending (exact values before censored bounds on
    ties). Fresh copy on every call. *)

val minimum : t -> float
(** Smallest bound-completion value; [nan] on empty. The true minimum when
    the smallest observation is exact. *)

val maximum : t -> float
(** Largest bound-completion value; [nan] on empty. A lower bound under
    censoring. *)

val mean_lb : t -> float
(** Bound-completion mean: the sample mean when no observation is censored,
    otherwise a lower bound on it. [nan] on empty. *)

val mean_exact : t -> float option
(** [Some] sample mean only when nothing is censored. *)

val quantile_lb : t -> float -> float
(** Nearest-rank empirical quantile of the bound completion: for
    [0 < q <= 1] the order statistic of rank [ceil (q * n)] (rank 1 for
    [q = 0]). Always a lower bound on the true quantile; [nan] on empty.
    Raises [Invalid_argument] outside [0, 1]. *)

val quantile : t -> float -> float option
(** [Some v] exactly when the [q]-th order statistic takes the value [v]
    under {e every} completion of the censored observations (equivalently:
    the bound completion and the all-censored-at-infinity completion
    agree); [None] when only the {!quantile_lb} bound is known. *)

type ci = { point : float; lo : float; hi : float }
(** A point estimate with a percentile-bootstrap confidence interval.
    Under censoring all three are bounds, see the header. *)

val bootstrap_mean :
  key:Ss_prng.Rng.key -> ?reps:int -> t -> ci
(** Percentile bootstrap 95% interval on the (bound-completion) mean;
    [reps] defaults to 1000. On an empty distribution every field is
    [nan]; on a single observation the interval is degenerate. *)

val bootstrap_quantile :
  key:Ss_prng.Rng.key -> ?reps:int -> q:float -> t -> ci
(** Percentile bootstrap 95% interval on {!quantile_lb}[ q]. *)

val ks_statistic : t -> t -> float
(** Two-sample Kolmogorov-Smirnov statistic: the largest absolute ECDF
    difference between the two bound completions. [nan] when either side
    is empty. *)

val ks_pvalue : t -> t -> float
(** Asymptotic two-sided p-value for {!ks_statistic} (Smirnov's series with
    the usual small-sample correction). Approximate below ~8 observations
    per side; use it to rank evidence, not as an exact test. *)

val superiority : t -> t -> float
(** [superiority a b] is the probability that a random draw of [a] exceeds
    a random draw of [b], ties counted half (the Mann-Whitney measure of
    stochastic dominance, on bound completions): 0.5 means no dominance,
    1.0 means every [a] value beats every [b] value. [nan] when either
    side is empty. *)

val overlap : ci -> ci -> bool
(** Whether two intervals intersect ([\[lo, hi\]] as closed intervals). *)
