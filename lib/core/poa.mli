(** Price of anarchy / stability machinery.

    Both prices divide an equilibrium diameter by the minimum diameter
    over {e all} realizations of the instance (the OPT).  For connectable
    instances OPT is between 1 and 4 (Theorem 2.3's constructions have
    diameter at most 4), so the paper's Table 1 is really about
    equilibrium diameters; this module still computes OPT honestly:
    exactly by enumeration on small instances, by sandwich bounds
    otherwise. *)

val canonical_low_diameter_realization : Budget.t -> Strategy.t
(** A connected realization with diameter <= 4 for any connectable
    instance with [n >= 2] (diameter <= 2 when a max-budget player can
    cover everyone): the generic OPT upper-bound witness.  For
    subcritical instances the result is just some valid profile (its
    diameter is [n^2] like every other realization's).

    Construction: every positive-budget player spends one arc on a
    maximum-budget hub [h]; the remaining arcs of [h] and of the other
    positive players cover the zero-budget players (σ >= n-1 makes this
    exactly possible); leftovers are dumped on arbitrary fresh targets. *)

val opt_diameter_exact : ?max_profiles:int -> Budget.t -> int option
(** Exact OPT; [None] if the instance has more than [max_profiles]
    (default [2_000_000]) profiles.  Enumerates profiles only when
    {!opt_diameter_bounds} leave a gap, and stops at the first profile
    whose diameter reaches the lower bound. *)

val opt_diameter_bounds : Budget.t -> int * int
(** [(lo, hi)] with [lo <= OPT <= hi]:
    - subcritical: [(n^2, n^2)];
    - [n = 1]: [(0, 0)];
    - connectable: [lo = 1] if [sigma >= n(n-1)/2] else [2]; [hi] is the
      measured diameter of {!canonical_low_diameter_realization}. *)

type ratio = { num : int; den : int }
(** An exact price: equilibrium diameter over OPT diameter. *)

val ratio_to_float : ratio -> float
val pp_ratio : Format.formatter -> ratio -> unit

type prices = {
  anarchy : ratio;    (** worst equilibrium diameter / OPT *)
  stability : ratio;  (** best equilibrium diameter / OPT *)
}

val exact_prices : ?max_profiles:int -> Game.t -> prices option
(** Exact PoA and PoS by full enumeration of profiles and equilibria;
    [None] when the instance is too large or (impossibly, per
    Theorem 2.3) has no equilibrium. *)

val anarchy_lower_bound : equilibrium_diameter:int -> Budget.t -> ratio
(** The PoA lower bound certified by one known equilibrium: its diameter
    over the OPT {e upper} bound. *)

(** {1 Welfare-based prices (sensitivity ablation)}

    The paper takes the social cost to be the diameter; the older
    Fabrikant et al. line uses the {e sum of all players' costs}.  The
    welfare variants below recompute both prices under that alternative
    on small instances, so the experiments can ask how much of Table 1's
    story depends on the choice. *)

val exact_welfare_prices : ?max_profiles:int -> Game.t -> prices option
(** PoA/PoS with social cost = {!Game.social_welfare}: worst (resp.
    best) equilibrium welfare over the minimum welfare across all
    profiles.  Same enumeration limits as {!exact_prices}. *)
