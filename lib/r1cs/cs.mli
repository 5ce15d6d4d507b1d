(** Rank-1 constraint systems (R1CS) in the libsnark "protoboard" style.

    A system is a list of constraints [<A,w> * <B,w> = <C,w>] over a witness
    vector [w] whose index 0 is pinned to the constant 1, indices
    [1..num_inputs] are the public inputs, and the rest are auxiliary
    (private) wires.  The board always carries a concrete assignment: gadget
    code computes witness values while emitting constraints, so the same
    synthesis code serves key generation (dummy inputs), proving (real
    inputs) and satisfaction checks.

    A board is created in one of two modes, and the same synthesis code
    runs on both:

    - {b recording} ({!create}): every constraint's linear combinations and
      every wire label are stored.  This is the only source of structure —
      the trusted setup, the keypair cache, the lint and the SNARK's CSR
      matrices read it.
    - {b witness-only} ({!create_witness}): wires and their values are
      allocated exactly as in recording mode, but {!enforce} only counts
      and labels are dropped, so synthesis costs little more than the
      native computation.  The prove entry points use it: {!Zebra_snark}'s
      prover reads only {!assignment} and the three counts, and checks the
      counts against its proving key.  The structure queries
      ({!constraints}, {!iter_constraints}, {!fold_constraints},
      {!is_satisfied}, {!find_unsatisfied}, {!wire_label}) raise
      [Invalid_argument] on such a board rather than answer about zero
      recorded constraints. *)

(** A wire: its index on the board and the value it was allocated with. *)
type var

type t

(** Linear combination: sum of [coeff * var] terms. *)
type lc = (Fp.t * var) list

(** A recording board. *)
val create : unit -> t

(** A witness-only board (see the module documentation). *)
val create_witness : unit -> t

(** [record synth] runs [synth] on a fresh recording board and returns it. *)
val record : (t -> unit) -> t

(** [true] for a board made by {!create}. *)
val recording : t -> bool

(** The constant-1 wire. *)
val one_var : var

(** [alloc_input cs v] allocates the next public-input wire with value [v].
    All public inputs must be allocated before any auxiliary wire (this
    convention is what lets the verifier reconstruct the input part).
    [?label] attaches a debug/provenance name visible to diagnostics and the
    static analyzer ({!wire_label}); a witness-only board drops it.
    @raise Invalid_argument if an auxiliary wire exists already. *)
val alloc_input : t -> ?label:string -> Fp.t -> var

(** [alloc cs v] allocates an auxiliary wire with value [v].  [?label] as in
    {!alloc_input}; labels with the ["bit"] prefix additionally declare a
    booleanity contract that [Zebra_lint] checks (see {!Gadgets.alloc_bit}). *)
val alloc : t -> ?label:string -> Fp.t -> var

(** The value the wire was allocated with (unaffected by {!set_value}). *)
val var_value : var -> Fp.t

(** The provenance label attached at allocation time, if any.
    @raise Invalid_argument on a witness-only board. *)
val wire_label : t -> var -> string option

(** [enforce cs ?label a b c] adds the constraint [a * b = c].  On a
    witness-only board it only counts the constraint; [a], [b], [c] and
    [label] are not looked at. *)
val enforce : t -> ?label:string -> lc -> lc -> lc -> unit

(** The wire's current value on the board. *)
val value : t -> var -> Fp.t

(** [set_value cs v x] overwrites a wire's witness value — used only by
    tests that deliberately corrupt a witness. *)
val set_value : t -> var -> Fp.t -> unit

(** [simplify lc] merges duplicate-wire terms (first occurrence keeps its
    position) and drops zero coefficients. *)
val simplify : lc -> lc

val num_vars : t -> int

(** Number of public input wires (excluding the constant wire). *)
val num_inputs : t -> int

(** Number of constraints enforced so far — counted in both modes. *)
val num_constraints : t -> int

(** [constraints cs] in insertion order.
    @raise Invalid_argument on a witness-only board. *)
val constraints : t -> (lc * lc * lc) array

(** {1 Read-only traversal}

    [iter_constraints]/[fold_constraints] visit every constraint in
    insertion order together with its index and optional label, without
    copying or exposing the internal representation — the traversal the
    static analyzer ([Zebra_lint]) and future tooling are built on.  The
    callback must not add constraints or allocate wires on [cs].  Both
    raise [Invalid_argument] on a witness-only board. *)

val iter_constraints :
  t -> (index:int -> label:string option -> lc -> lc -> lc -> unit) -> unit

val fold_constraints :
  t ->
  init:'a ->
  f:('a -> index:int -> label:string option -> lc -> lc -> lc -> 'a) ->
  'a

(** Full assignment, indexed by wire; entry 0 is 1. *)
val assignment : t -> Fp.t array

(** Values of the public input wires [1..num_inputs]. *)
val public_inputs : t -> Fp.t array

(** @raise Invalid_argument on a witness-only board. *)
val is_satisfied : t -> bool

(** First violated constraint's label (or its index as a string).
    @raise Invalid_argument on a witness-only board. *)
val find_unsatisfied : t -> string option

(** [var_of_int cs i] — wire [i] of [cs] with its current value; an escape
    hatch for tools that index wires by number (SNARK layer, lint).
    @raise Invalid_argument if [cs] has no wire [i]. *)
val var_of_int : t -> int -> var

val int_of_var : var -> int
