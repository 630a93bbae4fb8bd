(** The OpenMetrics parser and validator: the self-check half of
    {!Bbng_obs.Openmetrics.render}. *)

val unescape : string -> string
(** Inverse of {!Bbng_obs.Openmetrics.escape_label_value}. *)

type sample = {
  sample_name : string;
  labels : (string * string) list;
  value : float;
}

type family = {
  fam_name : string;
  fam_type : Bbng_obs.Openmetrics.mtype;
  samples : sample list;
}

val parse : string -> (family list, string) result
(** Syntax: families in [# TYPE] order with their samples; label
    values unescaped.  Accepts [# HELP] and other comment lines.
    Rejects duplicate families, samples outside a family, and a missing
    [# EOF]. *)

val validate : string -> (family list, string) result
(** {!parse} plus semantic checks: counter samples are non-negative
    with a [_total]-or-bare name, histogram buckets are cumulative
    (non-decreasing in [le] order), the [+Inf] bucket equals [_count],
    and [_sum]/[_count] are present. *)
