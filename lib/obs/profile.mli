(** The one span store, and call-path performance attribution.

    Every domain keeps a stack of its open spans.  {!Span.enter} pushes
    a frame whose path is the parent's path plus the span name
    ([";"]-joined, flamegraph folded-stack style); {!Span.exit} closes
    it and records it once, at the full path: the close's inclusive
    wall time, maximum, minor/major words and latency bucket
    ({!closes}, which {!Span.snapshot} rolls up per name), plus its
    {e self}-time (wall minus the wall of its direct children) and
    {e self}-allocation (minor words minus the children's) ({!snapshot}).
    Because a parent accumulates each child's exact recorded integers,
    self values telescope: summing self-time over a well-nested tree
    reproduces the root's recorded wall to the nanosecond — which is
    why the folded per-name totals can be pinned {e equal} to the
    per-name {!Span} totals, not merely close.

    GC words are the calling domain's own [Gc.counters] delta between
    enter and close; a frame closed on another domain records its wall
    time and no GC words.

    Accumulation is sharded per domain ({!Counter}-style 8-way
    [Domain.self] indexing) and the stacks live in domain-local
    storage, so {!Bbng_core.Parallel} workers profile without
    contending.  Out-of-order or double closes never corrupt a stack:
    frames popped over are detached and still record to their (already
    fixed) path when their own close arrives.

    Disabled by default.  There is one switch: {!set_enabled} and
    {!Span.set_enabled} set the same flag, which [--stats], [--report]
    and [--profile] entry points turn on. *)

type stat = { count : int; self_ns : int; self_minor_words : float }
(** [count]: closes recorded at this exact path; [self_ns] /
    [self_minor_words]: wall time and minor allocation attributed to
    the path itself, excluding direct children. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

type token
(** One open frame (or nothing, when profiling is disabled).  Produced
    by {!enter}, consumed by {!close}; {!Span} handles are tokens. *)

val enter : string -> token
(** Push a frame for [name] on the calling domain's stack, reading the
    clock and the domain's GC counters.  The frame's path is
    [<parent path>;name] ([name] alone at depth 0, or [<base>;name]
    under {!with_root}). *)

val close : token -> unit
(** Read the clock and GC counters once, record the frame at its path,
    pop it, and charge its wall / minor words to the new top as child
    totals; when a sink is active, emit the ["span"] event.  Closing
    twice is a no-op.  Closing out of order detaches the frames opened
    above (their own close still records, without touching the stack);
    closing from a different domain, or a frame already popped over,
    only records. *)

val current_path : unit -> string
(** The calling domain's current open path ([""] when the stack is
    empty and no root is installed).  {!Bbng_core.Parallel} captures
    this before spawning workers. *)

val with_root : string -> (unit -> 'a) -> 'a
(** [with_root base f] runs [f] with an empty stack whose depth-0
    frames are rooted under [base] — how a spawned worker's spans stay
    attributed beneath the caller's call path.  The previous stack is
    restored afterwards; frames [f] leaked are detached. *)

val stack_depth : unit -> int
(** Open frames on the calling domain's stack (0 when balanced). *)

val snapshot : unit -> (string * stat) list
(** All recorded paths merged across shards, sorted by path. *)

type closes = {
  name : string;  (** the span name: the path's last segment *)
  closes : int;
  wall_ns : int;  (** inclusive wall time, summed over the closes *)
  max_ns : int;
  minor_words : float;  (** inclusive, the closing domain's own words *)
  major_words : float;
  latency : Histogram.t list;
      (** the path's per-shard latency histograms; combine them with
          {!Histogram.merge_counts} *)
}

val closes : unit -> (string * closes) list
(** The inclusive view of the same table, merged across shards and
    sorted by path. *)

val name_totals : (string * stat) list -> (string * stat) list
(** Per-name rollup of a {!snapshot}: a name's [self_ns] /
    [self_minor_words] sum over every path occurrence (so recursion
    counts once per occurrence, matching {!Span.snapshot}), and its
    [count] is the closes — paths ending in the name.  For well-nested
    runs this equals the {!Span} totals exactly. *)

type flavor = Wall_ns | Minor_words

val folded_lines : flavor -> (string * stat) list -> string list
(** flamegraph.pl / speedscope folded-stack lines: ["a;b;c VALUE"],
    where VALUE is self nanoseconds or self minor words. *)

val write_folded : string -> unit
(** Write the current snapshot as folded stacks: wall-ns flavor to the
    given path and minor-words flavor to [x.alloc.folded] for a path
    [x.folded], both
    through {!Atomic_io} (a crash mid-write leaves no torn [.folded]).
    Fault probe: [profile.export]. *)

val of_events : Json.t list -> (string * stat) list
(** Offline reconstruction from recorded ["span"] events (a
    [--report] file read by {!Trace_export.read_events}): close events
    are grouped per domain and re-nested by start/duration containment
    — events from this library carry an exact [t0_us] stamp; older
    recordings fall back to [ts_us - dur_us].  Returns the same shape
    as {!snapshot}, so a recorded run flames identically to a live
    [--profile] one. *)

val top : ?limit:int -> (string * stat) list -> (string * stat) list
(** The [limit] (default 10) hottest paths by self-time, descending. *)

val reset_all : unit -> unit
(** Clear the table ({!Span.reset_all} is the same function). *)
