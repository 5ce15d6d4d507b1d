(** The registry of circuits the protocol actually deploys, synthesised at
    the same dummy assignment the trusted setup uses.

    One list, consumed by the tools that must agree on what "deployed"
    means: the [zebra lint] CLI subcommand, the [scripts/check.sh] CI gate
    (which fails on any [Error]-severity lint finding), the [bench lint]
    analyzer-cost benchmark, and the test that a witness-only board
    computes the same assignment as a recording one.  Each entry is a
    synthesiser that fills the board it is handed, so both board modes
    run the same code; [Zebra_r1cs.Cs.record] gives the recording board
    the analyzers read.  Recording a CPLA board costs tens of milliseconds (no SNARK
    setup runs), so the registry is rebuilt on demand. *)

(** A synthesiser: it allocates the circuit's wires and constraints on
    the given (fresh) board. *)
type synth = Zebra_r1cs.Cs.t -> unit

(** [(name, synthesise)] pairs, in a stable order.  Every protocol circuit
    — the CPLA attestation circuit at the demo and deployment tree depths,
    the reward circuit under each supported policy family, and the
    reputation link circuit — is registered as {e two arms}, one per
    {!Zebra_hashcomp.Hash_composition}: [<base>-poseidon] (the deployed
    default) and [<base>-mimc] (the ablation arm).  The reward arms share
    a structure (the statement is hash-free) but are listed under both
    names so gates and caches treat all circuits uniformly.  The two
    standalone hash-gadget Merkle shapes ([merkle-mimc-16],
    [merkle-poseidon-16]) close the list. *)
val circuits : unit -> (string * synth) list

(** [find name] — the synthesiser registered under [name].  Legacy bare
    names that predate the composition arms (e.g. ["cpla-depth16"])
    resolve to their Poseidon (default) arm. *)
val find : string -> synth option

val names : unit -> string list
