(** Fixed-capacity dense bitsets.

    Occurrence sets in Taxogram (Section 3, Step 2 of the paper) are
    implemented as bitsets so that the support of a specialized pattern is a
    single bitwise-and away from its parent's occurrence set (Lemma 7). *)

type t

val create : int -> t
(** [create n] is an empty bitset with capacity for members [0..n-1]. *)

val capacity : t -> int

val copy : t -> t

val set : t -> int -> unit

val unset : t -> int -> unit

val mem : t -> int -> bool

val cardinal : t -> int
(** Number of members; population count over the words. *)

val is_empty : t -> bool

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is [true] iff every member of [a] is a member of [b]. *)

val inter : t -> t -> t
(** Fresh intersection; capacities must match. *)

val inter_into : dst:t -> t -> t -> unit
(** [inter_into ~dst a b] stores [a ∩ b] in [dst] (which may alias [a]). *)

val inter_cardinal : t -> t -> int
(** [inter_cardinal a b] is [cardinal (inter a b)] without allocating. *)

val union : t -> t -> t

val union_into : dst:t -> t -> t -> unit

val diff : t -> t -> t

val iter : (int -> unit) -> t -> unit
(** Iterate members in increasing order. *)

val run_count : t -> ends:t -> int
(** [run_count t ~ends] is the number of runs that [t] meets. [ends] cuts
    the positions [0..capacity-1] into runs: each run is a maximal block of
    consecutive positions closed by (and including) one member of [ends],
    i.e. the positions after the previous member of [ends] up to this one.
    Positions after the last member of [ends] belong to no run and are not
    counted. Works a word at a time with a carry between words, so a run
    spanning any number of words counts once. Capacities must match. *)

val inter_run_count : t -> t -> ends:t -> int
(** [inter_run_count a b ~ends] is [run_count (inter a b) ~ends] in one
    pass, without building the intersection. Capacities must match. *)

val run_ends_into : dst:t -> t -> ends:t -> unit
(** [run_ends_into ~dst t ~ends] stores in [dst] the members of [ends] that
    close a run [t] meets (see {!run_count}), so
    [cardinal dst = run_count t ~ends]. [dst] may alias [t] or [ends];
    capacities must match. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val exists : (int -> bool) -> t -> bool

val for_all : (int -> bool) -> t -> bool

val to_list : t -> int list

val of_list : int -> int list -> t
(** [of_list n members] is a bitset of capacity [n] holding [members]. *)

val full : int -> t
(** [full n] holds every member [0..n-1]. *)

val clear : t -> unit
(** Remove all members in place. *)

val choose : t -> int option
(** Smallest member, if any. *)

val pp : Format.formatter -> t -> unit
