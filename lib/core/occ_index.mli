(** Taxonomy-projected occurrence indices (paper Section 3, Step 2).

    For a pattern class (a frequent pattern of the relabeled database), the
    occurrence index assigns to each pattern node position an {e occurrence
    index entry}: a projection of the taxonomy onto the labels covered by the
    class at that position, where every label carries the bitset of
    occurrence ids whose original label at that position descends from it.

    A single generalized-isomorphism test result (one gSpan embedding) is
    thereby shared by every member of the pattern class: the occurrence set
    of any specialized pattern is an intersection of per-position label sets
    (Lemma 7), with no further isomorphism tests or database scans. *)

type t = {
  class_graph : Tsg_graph.Graph.t;
      (** most general member of the class; node ids are positions *)
  class_support_set : Tsg_util.Bitset.t;  (** over database graph ids *)
  occ_count : int;
  occ_gid : int array;
      (** occurrence id -> database graph id, ascending: occurrences are
          numbered in graph order, so each graph's occurrences are one
          contiguous run of ids *)
  entries : (Tsg_graph.Label.id, Tsg_util.Bitset.t) Hashtbl.t array;
      (** per position: covered label -> occurrence set (the OIE) *)
  all_occs : Tsg_util.Bitset.t;  (** the full occurrence set of the class *)
  db_size : int;
  run_end : Tsg_util.Bitset.t;
      (** over occurrence ids: the last occurrence of each graph's run, so
          the runs of {!Tsg_util.Bitset.run_count} are exactly the graphs *)
}

type ancestors
(** For each taxonomy label, the array of its reflexive ancestors that an
    index keeps: those passing enhancement (b)'s [keep_label], and always
    the label's most general ancestor (the class label at any position it
    occupies). Immutable once built, so domains may share it. *)

val kept_ancestors :
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  ?keep_label:(Tsg_graph.Label.id -> bool) ->
  unit ->
  ancestors
(** Build the table once per run (one pass over every label's ancestor
    set); [keep_label] defaults to keeping everything. *)

val build :
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  original:Tsg_graph.Db.t ->
  ?keep_label:(Tsg_graph.Label.id -> bool) ->
  ?ancestors:ancestors ->
  ?min_support:int ->
  Tsg_gspan.Gspan.pattern ->
  t
(** Build the index from a pattern of the relabeled database and the
    {e original} database (for original labels). Occurrences are numbered
    by a stable sort of the embeddings on graph id (gSpan already emits
    them in that order). Each occurrence adds itself, at each position, to
    the sets of the labels in [ancestors]'s array for its original label.

    [keep_label] implements enhancement (b): ancestor labels failing it
    are left out of the entries (default: keep everything). The
    position's own class label is always kept. [ancestors], from
    {!kept_ancestors}, carries that filter precomputed; pass it instead of
    [keep_label] to share one table across many builds (passing both
    raises [Invalid_argument]). Without it, the table is derived from
    [keep_label] and kept for the next call with the same taxonomy and the
    physically same [keep_label], so the filter must be a pure function
    of the label.

    [min_support] (default [0]: keep everything) prunes at build time, as
    enhancement (a) would in Step 3: a label other than the class label
    whose set spans fewer than [min_support] graphs is left out of its
    position's entry. A descendant's set lies within its ancestors' sets,
    so such a label's whole covered subtree goes with it, and no pattern
    through it can reach [min_support]. *)

val occurrence_set : t -> position:int -> Tsg_graph.Label.id -> Tsg_util.Bitset.t option
(** [OcS] of a label within a position's entry. *)

val covered_labels : t -> position:int -> Tsg_graph.Label.id list
(** Labels present in the position's entry, sorted. *)

val distinct_graph_count : t -> Tsg_util.Bitset.t -> int
(** Number of distinct database graphs among an occurrence set — the support
    numerator: {!Tsg_util.Bitset.run_count} of the set with [run_end] as the
    run ends. A carry propagates a graph's run across word boundaries, so
    the cost is a few word operations per non-zero word, with no per-member
    or per-graph work. Raises [Invalid_argument] when the set's capacity is
    not [occ_count]. *)

val inter_graph_count : t -> Tsg_util.Bitset.t -> Tsg_util.Bitset.t -> int
(** [inter_graph_count t a b] is [distinct_graph_count t (inter a b)],
    counted in one fused pass ({!Tsg_util.Bitset.inter_run_count}) without
    building the intersection. Same capacity check. *)

val graph_set : t -> Tsg_util.Bitset.t -> Tsg_util.Bitset.t
(** Distinct database graph ids of an occurrence set, as a bitset over the
    database: the hit run ends ({!Tsg_util.Bitset.run_ends_into}) mapped
    through [occ_gid]. Same capacity check as {!distinct_graph_count}. *)

val self_check :
  taxonomy:Tsg_taxonomy.Taxonomy.t ->
  original:Tsg_graph.Db.t ->
  ?keep_label:(Tsg_graph.Label.id -> bool) ->
  ?min_support:int ->
  t ->
  string list
(** Cross-validate the index against brute-force {!Tsg_iso.Gen_iso}
    embedding enumeration over the original database: total and per-graph
    occurrence counts, the class support set, every occurrence-index-entry
    bitset cardinality per position and covered label, and the
    subset relation between a descendant label's set and its ancestors'.
    Returns discrepancy descriptions ([[]] when the index is sound).
    [keep_label] and [min_support] must be those the index was built with:
    each entry must hold exactly the class label plus the covered labels
    passing [keep_label] that span at least [min_support] graphs.
    Exponential in pattern size — debug/test use only.

    When the [TSG_DEBUG_CHECKS] environment variable is set
    ({!Tsg_util.Debug.checks_enabled}) and the instance is small, {!build}
    runs this automatically, with the build's own filter and threshold,
    and raises [Failure] on any discrepancy. *)

(** Size accounting — the quantities the paper's Lemmas 4 and 5 bound. *)
type size = {
  positions : int;
  entries : int;
      (** OIE labels across all positions: the kept ones, when built with
          a [min_support] *)
  set_members : int;
      (** total occurrence-set members (set bits) of those entries *)
}

val size : t -> size
