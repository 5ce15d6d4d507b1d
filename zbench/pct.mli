(** Exact percentiles over raw samples.

    Nearest-rank definition: the [q]-quantile of [n] samples is the
    [ceil (q * n)]-th smallest sample (the minimum for [q = 0]).  No
    interpolation and no bucketing, so every reported value is one of the
    samples. *)

(** [quantile xs q] for [q] in [\[0, 1\]].
    @raise Invalid_argument on an empty array or [q] outside [\[0, 1\]]. *)
val quantile : float array -> float -> float

(** [quantile xs 0.5]. *)
val p50 : float array -> float

(** A tail percentile and the evidence behind it: the sample at rank
    [rank] of [n], which has [beyond = n - rank] samples ranked above it. *)
type tail = { q : float; value : float; n : int; rank : int; beyond : int }

(** [tail xs] is the highest percentile with at least 10 samples ranked
    above it: rank [n - 10].  With fewer than 20 samples that rank falls
    at or below the median, and the tail is the median itself
    ([q = 0.5]).  Ties are ranked by position, so a run of equal samples
    counts towards the 10.
    @raise Invalid_argument on an empty array. *)
val tail : float array -> tail
