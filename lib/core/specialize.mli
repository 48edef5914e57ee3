(** Step 3 of Taxogram: enumerating specialized patterns from a pattern
    class via its occurrence index, while eliminating over-generalized
    patterns (paper Section 3, Step 3).

    Starting from the most general member of the class, node positions are
    specialized left-to-right (the processed-node-set discipline: once a
    later position has been touched, earlier positions are frozen — this is
    the paper's PNS), each step replacing a position's label by one of its
    children in the occurrence index entry and intersecting occurrence sets
    (Lemma 7). A pattern is over-generalized iff some single child
    replacement at {e any} position — frozen ones included, which is the
    paper's PNS follow-up check — preserves its support. Labels reachable
    through several DAG paths are deduplicated with a visited set (the
    paper's "visited vertex labels ... are marked"). *)

type enhancements = {
  child_pruning : bool;
      (** (a): stop descending below a child whose pattern is infrequent,
          and skip the tests against a child whose own occurrence set spans
          fewer than [min_support] graphs. {!Taxogram} applies the second
          half when building indices ({!Occ_index.build}'s [min_support]),
          so such children are not in the index at all *)
  label_prefilter : bool;
      (** (b): drop globally-infrequent taxonomy labels from occurrence
          indices (consumed by {!Taxogram} when building indices) *)
  start_preprocess : bool;
      (** (c): advance a position's start label to a descendant with an
          identical occurrence set before enumerating. Each step from a
          label [l] to a child [c] is taken only when every covered label
          of the position strictly below [l] is also below [c] (always so
          on a tree), which keeps the step complete on DAG taxonomies.

          Over an index built with [min_support], "covered" means kept, so
          on a DAG the step can be taken more often. It stays exact: a
          left-out label [x] spans fewer than [min_support] graphs, so
          every pattern with [x] at the position has support below
          [min_support]. Such a pattern is never emitted, and never
          witnesses that a pattern of support at least [min_support] is
          over-generalized (a witness has that pattern's support). Every
          pattern the step could lose carries a left-out label there *)
  collapse_equal_children : bool;
      (** (d): skip a label whose occurrence set equals one of its
          children's, exposing its children directly *)
}

val all_on : enhancements

val all_off : enhancements
(** The paper's baseline: Taxogram without the efficiency enhancements. *)

type stats = {
  mutable intersections : int;
      (** candidate supports counted (one fused intersection each) *)
  mutable visited : int;  (** patterns whose support was computed *)
  mutable emitted : int;
  mutable over_generalized : int;  (** visited patterns found over-general *)
}

val fresh_stats : unit -> stats

exception Out_of_time
(** Raised by {!enumerate} when the time budget runs out mid-class. *)

val enumerate :
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  min_support:int ->
  enhancements:enhancements ->
  ?stats:stats ->
  ?budget:Tsg_util.Timer.Budget.budget ->
  Occ_index.t ->
  (Pattern.t -> unit) ->
  unit
(** Emit every non-over-generalized pattern of the class with support at
    least [min_support] (an absolute graph count) — the class's most general
    member included when it qualifies.
    @raise Out_of_time when [budget] (default unlimited) expires; patterns
    already emitted stand. *)
