open Bbng_core
(** Checkpointed, shardable, crash-recoverable equilibrium census.

    Exhaustively certifies every profile of an instance and aggregates
    the equilibria: how many, how many up to realization isomorphism,
    the diameter histogram, representative profiles.  This is the data
    behind the "all equilibria of small instances obey the theorem"
    rows (Theorems 4.1/4.2), in a form that also answers "what do the
    equilibria look like?".

    The profile space is partitioned into lexicographic index shards —
    a shard is a pure [(lo, hi)] pair needing no state to restart
    (see {!Equilibrium.iter_profiles_range}).  Shards run across
    {!Parallel} domains; each completed shard appends one digest-
    stamped row to [FILE.partial] through {!Bbng_obs.Atomic_io}'s
    [O_APPEND] protocol, so a SIGKILL at any instant loses at most the
    in-flight shards plus a torn trailing line that every reader skips
    by contract.  {!resume} reloads a checkpoint tolerantly, recomputes
    only the missing shards, and commits the final artifact atomically;
    the final bytes are a canonical function of the census data, so a
    killed-and-resumed run commits an artifact byte-identical to an
    uninterrupted one (fault_smoke stage 12 pins this).  {!work} lets
    several OS processes drain one checkpoint cooperatively through
    appended claim rows.

    Fault probes: [census.checkpoint] fires before each shard row is
    appended, [census.claim] before each claim row. *)

type t = {
  game : Game.t;
  total_profiles : int;  (** [prod C(n-1, b_i)] *)
  scanned_profiles : int;
      (** profiles actually certified, always the index prefix
          [[0, scanned_profiles)]; [< total_profiles] in a partial
          census, and in a {!run} stopped by its [limit] (which is
          [Complete] over that prefix) *)
  equilibria : int;  (** Nash profiles among the scanned *)
  iso_classes : Strategy.t list;
      (** one representative per realization-isomorphism class, in the
          canonical (serialization) order *)
  iso_class_counts : (Strategy.t * int) list;
      (** the same representatives with their class sizes *)
  diameter_histogram : (int * int) list;
      (** (diameter, #equilibria) sorted by diameter *)
  min_diameter : int option;
  max_diameter : int option;
}

type outcome =
  | Complete of t
  | Partial of {
      census : t;  (** verified aggregate over the scanned shards *)
      unscanned : (int * int) list;
          (** coalesced profile-index ranges not yet certified *)
      why : Bbng_obs.Budgeted.why;
    }
      (** Deadline/work-budget expiry degrades to a typed partial
          census instead of raising — the checkpoint stays resumable. *)

(** {1 Sharding} *)

type plan = {
  version : Cost.version;
  budgets : Budget.t;
  shard_size : int;
  num_shards : int;
  total : int;
}
(** The recorded partitioning: budgets, shard size and derived counts.
    The plan row leads every checkpoint, so [--resume] needs no flags —
    and ties shard rows to their instance through a digest key. *)

type shard = { sid : int; lo : int; hi : int }

type shard_result = {
  shard : shard;
  found : int;
  classes : (Strategy.t * int) list;
  diameters : (int * int) list;
}

val make_plan : ?shard_size:int -> Game.t -> plan
(** @raise Invalid_argument on a saturated profile space (the sharded
    pipeline needs exact index arithmetic) or [shard_size < 1]. *)

val shards : plan -> shard list

val scan_shard :
  ?budget:Bbng_obs.Budgeted.t ->
  ?progress:Bbng_obs.Progress.t ->
  Game.t ->
  shard ->
  shard_result option
(** Certify one shard's profiles through the grouped verdict walk
    ({!Equilibrium.iter_verdicts_range}; a shard edge may cut a group
    of profiles that differ only in the last player's strategy, and the
    walk prices a cut group as it prices a whole one); [None] if the
    budget expired before the shard completed (partial shard work is
    dropped — only whole shards checkpoint, which is what makes resume
    deterministic). *)

val merge : Game.t -> plan -> shard_result list -> t
(** Aggregate shard results (any order, any subset) into one census;
    iso classes merge through {!Structure.Iso_acc}, so the result is
    independent of partitioning and merge order.  One result's classes
    are pairwise distinct, so each is tested only against the classes
    of the results before it ({!Structure.Iso_acc.add_classes}). *)

val unscanned_ranges : plan -> shard_result list -> (int * int) list
(** Coalesced profile-index ranges of the shards missing from the
    result set; [[]] iff the census is complete. *)

(** {1 Running} *)

val run : ?limit:int -> ?budget:Bbng_obs.Budgeted.t -> Game.t -> outcome
(** Sequential in-memory scan (no checkpoint): the whole profile space
    as one range through the shard scanner ({!scan_shard}'s grouped
    walk, one [census.shard] span) and {!merge}.  With [limit], the scan
    stops after [limit] equilibria and returns [Complete] over the
    scanned prefix [[0, scanned_profiles)], so [scanned_profiles] may
    be below [total_profiles].  The budget token is checkpointed once
    per profile; expiry returns [Partial] with the unscanned suffix
    [[(scanned_profiles, total_profiles)]].
    @raise Invalid_argument on a saturated profile space, as
    {!make_plan} does. *)

val run_sharded :
  ?domains:int ->
  ?shard_size:int ->
  ?budget:Bbng_obs.Budgeted.t ->
  ?checkpoint:string ->
  Game.t ->
  outcome
(** Sharded scan across domains.  With [~checkpoint:FILE], completed
    shards append to [FILE.partial] as they finish, shards already
    recorded there are not rescanned, and a complete census commits
    [FILE] atomically (removing the subsumed partial). *)

val resume :
  ?domains:int ->
  ?budget:Bbng_obs.Budgeted.t ->
  string ->
  (outcome * int, string) result
(** [resume FILE] (or [FILE.partial]) reloads the checkpoint with the
    tolerant codec — torn and alien lines are skipped and returned as
    the [int] — recomputes only missing shards, and commits the final
    artifact.  Resuming an already-committed artifact validates and
    summarizes it read-only.  All instance parameters come from the
    recorded plan row. *)

val work :
  ?budget:Bbng_obs.Budgeted.t ->
  ?owner:string ->
  ?shard_size:int ->
  ?seed:Game.t ->
  ?backoff_ms:float ->
  string ->
  (outcome, string) result
(** Cooperative multi-process mode: claim pending shards from [FILE]'s
    checkpoint one at a time (O_APPEND claim rows; first live claimant
    in file order wins; claims of dead processes are stale and are
    superseded), scan them, and checkpoint the results.  When every
    pending shard is claimed by a live peer, backs off exponentially
    (from [backoff_ms], capped) and re-reads.  Any worker observing the
    census complete commits the final artifact — commits are atomic and
    canonical, so concurrent committers are idempotent.  [seed] plants
    the plan row when the checkpoint does not exist yet. *)

(** {1 Checkpoint codec}

    Enough of the row codec to let tests and external tooling fabricate
    checkpoint lines (a plan-only file, a stale claim from a dead pid)
    without replicating the digest-stamp format. *)

val plan_row : plan -> Bbng_obs.Json.t
(** The digest-stamped plan row that leads every checkpoint — a pure
    function of the instance, so racing seeders append identical
    bytes. *)

val plan_key : plan -> string
(** 12-hex instance key stamped into every shard and claim row; rows
    keyed to a different plan are alien and are skipped. *)

val claim_row : key:string -> owner:string -> pid:int -> int -> Bbng_obs.Json.t
(** A digest-stamped claim on shard [sid] by [pid]. *)

(** {1 Derived statistics} *)

val price_of_anarchy : t -> Poa.ratio option
(** Worst equilibrium diameter over the instance's exact OPT (computed
    by enumeration as well); [None] if no equilibrium was found. *)

val pp_summary : Format.formatter -> t -> unit
val pp_outcome : Format.formatter -> outcome -> unit
