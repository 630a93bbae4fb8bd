(** Named set-to-value gauges: the process's one gauge registry.

    A gauge is one float cell, identified by its name plus an optional
    label set, so [progress.done{task="census"}] and
    [progress.done{task="dynamics"}] are distinct cells of one
    family.  Gauges are last-write-wins, so they are not split per
    domain like {!Counter}.  {!Openmetrics} renders them as [gauge]
    families and [run.summary]'s [metrics] object is {!to_json}. *)

type t

val make : ?labels:(string * string) list -> string -> t
(** Find-or-create by [(name, labels)].  Label values are escaped by
    the OpenMetrics renderer, not here. *)

val set : t -> float -> unit
val set_int : t -> int -> unit
val value : t -> float

val snapshot : unit -> (string * (string * string) list * float) list
(** Every registered gauge as [(name, labels, value)], sorted, so the
    cells of one name are adjacent. *)

val to_json : unit -> Json.t
(** Flat [Obj] of every gauge; a labelled cell is keyed
    [name{k=v,...}]. *)

val reset_all : unit -> unit
(** Zero every registered gauge (the registry keeps its entries). *)
