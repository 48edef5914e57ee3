(** Lint pass over mined pattern sets (rules [PAT001]..[PAT008]).

    Patterns are analyzed after parsing ({!Tsg_core.Pattern_io}); findings
    anchor to each pattern's [p]-header line when the set came from a file.

    Rules (see DESIGN.md for the catalog):
    - [PAT001] error: pattern graph is not connected
    - [PAT002] error: node numbering is not the minimum-DFS-code order
      ({!Tsg_gspan.Min_code}) — canonical form is what makes
      isomorphism-dedup a string comparison
    - [PAT003] error: duplicate pattern (isomorphic with equal labels)
    - [PAT004] error: support monotonicity violated — a generalization
      recorded with {e smaller} support than one of its specializations
      (impossible: [GenSet(spec) ⊆ GenSet(gen)], paper Lemma 7); two
      disconnected patterns that generalize each other are isomorphic,
      and the finding goes on the lower-support one
    - [PAT005] warning: over-generalization residue — a strict
      generalization with support {e equal} to a specialization's should
      have been eliminated by the paper's equal-support rule
    - [PAT006] error: headers disagree on the database size
    - [PAT007] error: node label that is not a taxonomy concept (only when
      a taxonomy is supplied)
    - [PAT008] info: pattern-set statistics (only with [~stats])

    The pairwise rules ([PAT003]..[PAT005]) compare patterns under
    generalized graph isomorphism ({!Tsg_iso.Gen_iso.graph_isomorphic}),
    so they subsume single-node-relabeling generalizations.

    They compare a pair only within a pattern class: connected patterns are
    bucketed by the canonical key of the pattern relabeled to
    {!Tsg_taxonomy.Taxonomy.most_general} (Taxogram's Step 1,
    {!Tsg_core.Relabel.graph}). This loses no diagnostic. A generalized
    isomorphism between two patterns with equal edge counts is a bijection
    on nodes and on edges, with exact edge labels, and maps each label to a
    descendant. An ancestor and its descendant share their unique most
    general ancestor, so both relabeled patterns are the same labeled
    graph and have the same key; duplicates trivially do too. Patterns
    without a taxonomy, or with a [PAT007] label, are bucketed by their
    exact {!Tsg_core.Pattern.key} and only get the [PAT003] duplicate test;
    disconnected patterns (which have no canonical key) are bucketed by
    node and edge count. Diagnostics come out in the order of an all-pairs
    loop: [i] ascending, then its partners [j > i] ascending.

    Within a class bucket, a pair is tested in one direction or none. A
    label's {!Tsg_taxonomy.Taxonomy.depth} is its longest path from a root,
    so a strict ancestor is strictly shallower, and a generalization has a
    node-depth sum no larger than its specialization's, equal only when
    every label maps to itself — an exact isomorphism, so equal keys.
    Between two connected patterns with different keys, only the one with
    the smaller depth sum can generalize the other, and equal sums rule out
    both directions. Disconnected pairs are tested both ways. *)

val check_located :
  Tsg_util.Diagnostic.collector ->
  ?file:string ->
  ?taxonomy:Tsg_taxonomy.Taxonomy.t ->
  ?stats:bool ->
  node_labels:Tsg_graph.Label.t ->
  edge_labels:Tsg_graph.Label.t ->
  Tsg_core.Pattern_io.located list ->
  unit
(** [edge_labels] must be the table the set was parsed with — [PAT002]
    compares against {!Tsg_core.Pattern_io.canonical_form}, whose node
    order is defined over edge-label {e names}. *)

val validate :
  Tsg_util.Diagnostic.collector ->
  ?taxonomy:Tsg_taxonomy.Taxonomy.t ->
  node_labels:Tsg_graph.Label.t ->
  db_size:int ->
  Tsg_core.Pattern.t list ->
  unit
(** In-memory counterpart for save-time validation (no source locations;
    patterns are identified by position). [PAT002] is not applied:
    in-memory pattern graphs carry their pattern-class numbering and are
    canonicalized by {!Tsg_core.Pattern_io} on write. *)
