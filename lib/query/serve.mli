(** The [tsg-serve] request loop: reads the {!Protocol} line protocol
    from a channel, dispatches query batches across a pool of OCaml 5
    domains (shared-counter workers — query batches are flat, so they need
    none of {!Tsg_util.Pool}'s work stealing), and writes one response
    block per request, in request order.

    Consecutive data queries ([contains]/[by-label]/[top-k]) form a batch
    that is executed in parallel; [stats], [health], [reload] and [quit]
    are barriers — the pending batch is flushed before they are handled,
    so [stats] reflects every earlier request. Responses:

    {v
    ok <n>                                  then n result lines:
    p <id> support <count>/<db-size> <pattern>     (contains, by-label)
    p <id> score <s> support <count>/<db-size> <pattern>   (top-k)
    ok health patterns <n> uptime <s> checksum <hex|-> degrade <lvl> inflight <n> domains <d> epoch <e>
    ok epoch <e>                                   (epoch)
    ok reload patterns <n> checksum <hex> epoch <e>        (reload)
    ok prepare epoch <e> patterns <n> checksum <hex>       (prepare)
    ok commit epoch <e> patterns <n>               (commit)
    ok abort                                       (abort)
    error <CODE> <message>                  malformed or failed request
    v}

    [stats] prints the metrics registry between [begin stats]/[end stats]
    markers, one machine-readable line per metric
    ({!Tsg_util.Metrics.render_machine}). Error codes are the stable
    {!Protocol.error_code} catalog.

    {b Request ids.} A request prefixed [id <token> ] (see
    {!Protocol.split_tag}) gets its reply's first line prefixed
    [id <token> ], and a {e tagged} data query is answered immediately
    instead of joining the batch awaiting the next barrier — the contract
    pipelined clients (the cluster router, [tsg-blast --router]) rely on
    to match replies to requests on a shared connection.

    The loop is hardened against misbehaving clients: request lines are
    read through a bounded buffer (an oversized line costs O(bound)
    memory and answers [OVERSIZED], it cannot balloon the heap), each
    request can carry a deadline, a request that raises — including an
    injected fault at the ["serve.request"] failpoint ({!Tsg_util.Fault})
    — answers with an [error] line instead of killing the loop, and a
    peer that disconnects mid-reply ([EPIPE]/reset) ends the loop cleanly
    rather than crashing the server. Each of these events increments a
    metrics counter ([serve.oversized], [serve.deadline_expired],
    [serve.injected_faults], [serve.disconnects]).

    When an {!Admission} gate is supplied, every data query passes
    through it before being batched: shed requests answer
    [error OVERLOADED retry-after <s>] immediately (in request order),
    admitted ones carry a ticket that is started at execution (where the
    CoDel queue-wait deadline may still expire them) and finished after,
    feeding the latency window and degradation ladder. At degradation
    level 1 and above, admitted [contains] queries run with
    [Engine.contains ~use_cache:false]. *)

type outcome = {
  requests : int;  (** total requests answered (including errors) *)
  errors : int;
  quit : bool;  (** [true] when the stream ended with [quit] *)
  disconnected : bool;
      (** [true] when the loop ended because the peer hung up mid-write *)
}

type limits = {
  max_line_bytes : int;
      (** longest accepted request line; longer lines answer with an
          error (default {!Protocol.default_max_line_bytes}) *)
  request_deadline_s : float option;
      (** per-request wall-clock deadline, measured from arrival; a
          request that misses it answers [error DEADLINE deadline
          exceeded]. [None] (the default) disables deadlines; a
          non-positive value expires every data query. *)
}

val default_limits : limits

(** {1 Artifact checksums} *)

val checksum_strings : string list -> int64
(** Order-sensitive FNV-1a64 fingerprint of a list of file contents
    ({!Epoch.contents_sum} — {!Tsg_util.Checksum.mix64} over per-file
    {!Tsg_util.Checksum.fnv1a64} hashes) — the artifact checksum reported
    by [health] and verified on hot reload. *)

val checksum_files : string list -> int64
(** {!checksum_strings} over the contents of the given paths.
    @raise Sys_error when a path cannot be read. *)

(** {1 Direct answers} *)

val answer : ?use_cache:bool -> Engine.t -> Protocol.query -> string
(** [answer engine q] is the exact reply block the serve loop would write
    for data query [q] (header line plus result lines, newline-separated,
    no trailing newline) — what the cluster layer's scatter-gather merge
    is checked against. [use_cache] defaults to [true].
    @raise Invalid_argument on barrier verbs ([stats], [health],
    [reload], [quit]), which have no engine-level answer. *)

(** {1 Bounded reads} *)

val read_bounded_line :
  in_channel -> max_bytes:int -> [ `Line of string | `Too_long ]
(** Read one [\n]-terminated line without trusting its length: past
    [max_bytes] the rest of the line is drained in bounded memory and the
    read reports [`Too_long]. EOF with pending bytes yields them as a
    final [`Line]; EOF with none raises [End_of_file]. Shared with the
    cluster router's front loop.
    @raise End_of_file at end of input. *)

(** {1 TCP connection server} *)

type tcp_outcome = {
  accepted : int;  (** accepted connections, shed ones included *)
  shed : int;  (** connections shed with [OVERLOADED] *)
}

val tcp_server :
  ?on_listen:(int -> unit) ->
  ?on_tick:(unit -> unit) ->
  max_conns:int ->
  drain_s:float ->
  bind_addr:Unix.inet_addr ->
  should_stop:(unit -> bool) ->
  accepted:Tsg_util.Metrics.counter ->
  shed:Tsg_util.Metrics.counter ->
  port:int ->
  (Unix.file_descr -> unit) ->
  tcp_outcome
(** The accept loop behind {!listen} and the cluster router's listener.
    Ignores [SIGPIPE] for the whole process (a reset peer surfaces as
    [EPIPE]), binds [bind_addr:port] ([port = 0] picks a free port;
    [on_listen] receives the bound one either way), then polls
    [should_stop] and calls [on_tick] before each wait of at most 0.25 s
    for a connection.

    Each accepted connection bumps [accepted]. While [max_conns]
    handlers are running, a new one is shed instead (bumping [shed]) on
    a detached thread: it gets a bare [OVERLOADED] line and a half-close,
    whatever the client already sent is drained for at most about a
    second, and only then is it closed — closing with the request unread
    would reset the connection and discard the reply. Otherwise the
    handler runs on its own thread with [TCP_NODELAY] set; its slot is
    released and the descriptor closed however it returns, exceptions
    included (an exception still ends that thread, reported on stderr).

    Once [should_stop] answers [true] the listening socket closes and
    running handlers get [drain_s] seconds to finish. *)

(** {1 Bind addresses} *)

val parse_bind_addr : string -> (Unix.inet_addr, Tsg_util.Diagnostic.t) result
(** Parse an IP literal for {!listen}'s [bind_addr]. Invalid spellings
    answer a rule-[SRV001] diagnostic instead of raising. *)

(** {1 Serving generations}

    What one request executes against. The serve loop re-captures the
    current generation for {e every} request through [current], so a
    long-lived pooled connection (the cluster router keeps them open
    indefinitely) starts serving a hot-reloaded artifact at its next
    request — health, epoch and data answers on one connection can
    never disagree about which artifact is live. *)

type generation = {
  gen_engine : Engine.t;
  gen_labels : Tsg_graph.Label.t;
      (** connection-private edge-label parse table for this engine *)
  gen_checksum : int64 option;
}

(** The reload verbs' hooks, wired by {!listen} to its swap cells:
    [on_reload] loads, verifies and serves the on-disk artifact at once;
    [on_prepare] loads and verifies it into a staged swap without
    serving it, [on_commit] promotes the staged swap atomically,
    [on_abort] drops it. Each returns what follows [ok ] in the reply
    (for instance ["reload patterns 3 checksum ... epoch ..."]) or an
    error message, answered as [error RELOAD <message>]. *)
type reload_hooks = {
  on_reload : unit -> (string, string) result;
  on_prepare : unit -> (string, string) result;
  on_commit : unit -> (string, string) result;
  on_abort : unit -> (string, string) result;
}

val run :
  ?exec:Tsg_util.Pool.Exec.t ->
  ?limits:limits ->
  ?admission:Admission.t ->
  ?client:Admission.client ->
  ?checksum:(unit -> int64 option) ->
  ?reload_hooks:reload_hooks ->
  ?current:(unit -> generation) ->
  engine:Engine.t ->
  edge_labels:Tsg_graph.Label.t ->
  in_channel ->
  out_channel ->
  outcome
(** [exec] pins the batch-fill domain count for the whole loop (reported
    by the [health] verb and the [serve.domains] gauge). When absent, the
    count is {!Tsg_util.Pool.default_domains} — the [TSG_DOMAINS]
    environment variable when set, otherwise
    [Domain.recommended_domain_count ()] capped at 8 — read once at loop
    start, never re-read mid-stream. Parsing (which interns edge labels)
    stays on the calling domain; only query execution fans out. A worker
    exception that is not handled per-request is re-raised on the caller
    with its original backtrace.

    [admission] gates data queries (see above); [client] is the
    per-connection admission state (a fresh one is created when absent).
    [checksum] supplies the artifact checksum for [health] ([None] prints
    ["-"]). [reload_hooks] handles the [reload], [prepare], [commit]
    and [abort] verbs; without it each answers
    [error UNAVAILABLE <verb> is not enabled]. [current] supplies the
    generation each request executes against (default: one static
    generation built from [engine], [edge_labels] and [checksum ()]).

    {b Epoch pins.} A data query prefixed [at <epoch>] is answered only
    when the generation that would execute it serves exactly that epoch
    ({!Engine.epoch}); otherwise the reply is [error STALE_EPOCH serving
    <cur> wanted <req>] (counter [serve.stale_epoch]) and nothing is
    computed. The pin travels with the batch entry, so the check and the
    execution always see the same engine even across a concurrent
    hot swap. *)

(** {1 TCP mode} *)

type listen_outcome = {
  connections : int;  (** accepted connections, shed ones included *)
  overloaded : int;  (** connections shed with [OVERLOADED] *)
  aggregate : outcome;  (** summed over all served connections *)
}

type reload_config = {
  reload_paths : string list;  (** pattern artifact files to re-read *)
  reload_build : (string * string) list -> Engine.t * string list;
      (** build a fresh engine (plus its edge-label names) from
          [(path, contents)] pairs — typically {!Store.of_strings} +
          {!Engine.create} against the {e same} metrics registry, so
          counters survive the swap. Raising aborts the reload. *)
}

val listen :
  ?exec:Tsg_util.Pool.Exec.t ->
  ?limits:limits ->
  ?max_conns:int ->
  ?drain_s:float ->
  ?bind_addr:Unix.inet_addr ->
  ?admission:Admission.t ->
  ?checksum:int64 ->
  ?reload:reload_config ->
  ?reload_poll:(unit -> bool) ->
  ?on_diagnostic:(Tsg_util.Diagnostic.t -> unit) ->
  ?on_listen:(int -> unit) ->
  ?should_stop:(unit -> bool) ->
  engine:Engine.t ->
  edge_labels:Tsg_graph.Label.t ->
  port:int ->
  unit ->
  listen_outcome
(** Serve the protocol over TCP on [bind_addr:port] (default
    [127.0.0.1]; [port = 0] picks a free port; [on_listen] receives the
    bound port either way). [exec] (default a one-domain executor —
    concurrency comes from connection threads) fixes the per-connection
    batch-fill domain count once for the listener's lifetime; every
    hot-reload generation serves under it. Each connection is handled by
    its own system thread running {!run} with a private O(1) overlay
    table over the current edge-label snapshot
    ({!Tsg_graph.Label.Snapshot.to_table} — {!Tsg_graph.Label.t} is not
    thread-safe; a label first seen on another connection matches no
    stored pattern, which is exactly what an unseen label means).
    Connections are accepted, shed and drained by {!tcp_server}: beyond
    [max_conns] (default 64) concurrent connections, new clients get a
    single [OVERLOADED] line and a lingering close (request-level sheds
    use [error OVERLOADED ...]).

    When [admission] is given it is shared across connections, each of
    which gets its own per-client token bucket.

    {b Hot reload.} With [reload] configured, the engine lives in an
    atomic swap cell: a [reload] verb (any connection), or [reload_poll]
    answering [true] (polled in the accept loop — hook a SIGHUP flag
    here), re-reads [reload_paths], checksums them
    ({!checksum_strings}), re-reads to verify the artifact is stable on
    disk, verifies any {!Epoch} stamp against its payload (mismatch
    rolls back under rule [EPO002]), builds the new engine off the
    accept thread, stamps it with {!Epoch.of_sources}, and swaps it in.
    Requests started before the swap finish on the engine they captured;
    the {e next} request on any connection — pooled ones included — sees
    the new generation. A failing reload (unreadable file, checksum
    instability, stamp mismatch, parse or validation error) rolls back:
    the old engine keeps serving, a diagnostic (rule [SRV002], [SRV003]
    for checksum instability, [EPO002] for stamp mismatch) goes to
    [on_diagnostic] (default: stderr) and [serve.reload.rollbacks] is
    incremented; successful swaps increment [serve.reloads]. Concurrent
    reloads are serialized; the loser answers an error. [checksum] seeds
    the cell so [health] can report the artifact fingerprint before any
    reload.

    {b Two-phase reload.} With [reload] configured the
    [prepare]/[commit]/[abort] verbs are live too: [prepare] runs the
    same load-and-verify pipeline but parks the result in a staging
    cell (honoring the ["reload.prepare"] failpoint; counter
    [serve.reload.prepares]); [commit] atomically promotes the staged
    swap (["reload.commit"] failpoint; counters [serve.reload.commits]
    and [serve.reloads]); [abort] drops it ([serve.reload.aborts]). A
    one-shot [reload] clears any staged swap — it would predate the
    artifact just loaded. The cluster router drives these across
    replicas so a shard fleet changes epochs all-or-nothing.

    The accept loop polls [should_stop] (default never) about four times
    a second; once it returns [true] — typically flipped by a
    [SIGTERM]/[SIGINT] handler — the listening socket closes and
    in-flight connections get [drain_s] seconds (default 5) to finish.
    [SIGPIPE] is ignored for the whole process, so a reset peer surfaces
    as a clean disconnect ([serve.disconnects]). Sheds and accepts are
    counted in the engine metrics ([serve.connections],
    [serve.overloaded]). *)
