(** Timing of every call the benchmark makes into the program's layers.

    Every call goes through {!call}: its duration (monotonic clock) is kept
    as a raw sample under the call's name, separately for the set-up and
    the measured phase.  With tracing on, each call also becomes a span —
    name, start, end, parent span, task or catch-up id, bytes allocated on
    the calling domain, and the seconds the program's own [snark.prove] /
    [snark.verify] {!Zebra_obs.Obs} spans recorded inside it.  Spans stay
    in memory until {!write}.

    The layer of a call is its name up to the first dot ([wallet],
    [worker], [network], ...).  Names starting with [bench.] are the
    benchmark's own composite spans; their self time is benchmark time. *)

(** [Check] holds the calls of the correctness checks made after the
    measured phase; no metric reads them. *)
type phase = Setup | Run | Check

(** Start recording spans.  Call before any timed work. *)
val enable_tracing : unit -> unit

val tracing : unit -> bool

(** Switch the phase later samples are filed under (initially [Setup]). *)
val set_phase : phase -> unit

(** Monotonic nanoseconds. *)
val now_ns : unit -> int64

val seconds_since : int64 -> float

(** [call ?id name f] runs [f], recording it under [name]. *)
val call : ?id:int -> string -> (unit -> 'a) -> 'a

(** Like {!call}, also returning the call's duration in seconds. *)
val timed : ?id:int -> string -> (unit -> 'a) -> 'a * float

(** Durations (seconds) of every call to [name] in [phase], in call order. *)
val samples : phase -> string -> float array

(** Bytes allocated on the calling domain across the traced calls to
    [name] in [phase] (0 when tracing is off). *)
val alloc_bytes : phase -> string -> float

(** Per-layer self time over the spans under the last [bench.loop] span,
    largest first, with the loop's wall seconds.  A span's self time is its
    duration minus its child spans and minus the [snark.prove] /
    [snark.verify] seconds recorded inside it (those two are layers of
    their own).  [bench] is the loop's time outside every layer call. *)
val self_times : unit -> (string * float) list * float

(** Spans recorded so far. *)
val span_count : unit -> int

(** Estimated cost of recording one span, in seconds: traced minus
    untraced cost of an empty call, measured over many calls.  Leaves the
    recorded spans untouched. *)
val calibrate_span_cost : unit -> float

(** Write every span and the program's {!Zebra_obs.Obs} snapshot to
    [path] as JSON, with [header] under ["run"]. *)
val write : path:string -> header:Zebra_obs.Json.t -> unit
