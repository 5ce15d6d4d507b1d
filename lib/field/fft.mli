(** Radix-2 number-theoretic transforms over {!Fp}.

    An evaluation {!domain} of size [2^k] carries the primitive root and the
    precomputations needed by the QAP reduction: forward/inverse FFT and
    coset (shifted) variants used to divide by the vanishing polynomial.

    Large transforms fan their butterfly stages and scaling passes out over
    {!Zebra_parallel.Parallel}; results are bit-identical at every
    [ZEBRA_DOMAINS] setting (chunk grids are pool-independent — see
    DESIGN.md, "Multicore prover"). *)

(** A power-of-two evaluation domain with its root-of-unity tables.
    Immutable once built, so a single domain may be read concurrently from
    any number of OCaml domains (e.g. provers sharing a cached keypair). *)
type domain

(** [domain n] builds the smallest power-of-two domain of size [>= n],
    including its twiddle and coset power tables (eagerly, on the calling
    domain — the returned value is never mutated afterwards).
    @raise Invalid_argument if that exceeds the field's 2-adicity. *)
val domain : int -> domain

(** The domain size (a power of two). *)
val size : domain -> int

(** The domain generator omega (primitive [size]-th root of unity). *)
val omega : domain -> Fp.t

(** [element d i] is omega^i. *)
val element : domain -> int -> Fp.t

(** {2 Transforms}

    In place over one contiguous {!Fp.Vec.t} limb buffer, zero allocation
    per butterfly (per-chunk scratch elements only).  Vector length must
    equal [size d]. *)

(** Forward FFT: coefficients -> evaluations on the domain. *)
val fft_vec : domain -> Fp.Vec.t -> unit

(** Inverse FFT: evaluations -> coefficients. *)
val ifft_vec : domain -> Fp.Vec.t -> unit

(** Coset transforms over the shifted domain [g * <omega>] where [g] is the
    field's multiplicative generator; the vanishing polynomial
    [Z(x) = x^size - 1] is the nonzero constant [g^size - 1] there, which is
    how the QAP prover divides by [Z] exactly. *)
val coset_fft_vec : domain -> Fp.Vec.t -> unit

(** Inverse of {!coset_fft_vec}: evaluations on the coset -> coefficients. *)
val coset_ifft_vec : domain -> Fp.Vec.t -> unit

(** [vanishing_on_coset d] is [g^size - 1]. *)
val vanishing_on_coset : domain -> Fp.t

(** [vanishing_at d x] evaluates [Z(x) = x^size - 1]. *)
val vanishing_at : domain -> Fp.t -> Fp.t

(** [lagrange_at d x] evaluates every Lagrange basis polynomial of the
    domain at the point [x] (off-domain), in O(size) field operations.
    Used by the SNARK setup.  @raise Division_by_zero when [x] is in the
    domain. *)
val lagrange_at : domain -> Fp.t -> Fp.t array
