(** Request execution for the {!Reactor} front-end: the typed request
    dispatcher over {!Engine}, the per-op-class sliding windows,
    TTL/overload shedding, and STATS/METRICS assembly — including the
    connection-occupancy figures ([conns] in STATS,
    [redodb_conns_open]/[redodb_conns_rejected] in Prometheus). *)

type t

(** [conn_stats] returns the front-end's live [(open, rejected)]
    connection counts; it is read on every STATS/METRICS request. *)
val create : Engine.t -> conn_stats:(unit -> int * int) -> t

(** Names of the always-on per-op-class sliding windows
    ([serve.win.get] ... [serve.win.scan]); a per-reactor window set
    passed to {!serve} is indexed the same way. *)
val win_names : string array

(** One admitted request: its envelope (rid, token, TTL), the request,
    its absolute [deadline] ([Unix.gettimeofday]; 0. = none) and its
    ingress time [t_in]. *)
type item = {
  env : Protocol.env;
  req : Protocol.req;
  deadline : float;
  t_in : float;
}

(** Execute a unit of requests and return their responses in order.
    The unit's PUT/DELs commit together as one {!Engine.write_group}
    (writes to one key take effect in unit order) before any other
    request of the unit executes.  Each request gets its own [Serve_op]
    trace span (a write's covers its whole group) and records the
    op-class windows — the global set plus [extra_wins], the reactor's
    own — and the [serve.request_ns] histogram.  Expired requests
    answer the retryable [Timeout].  Windows are timed from [t_in], so
    queueing delay — e.g. behind a stalled reactor — is part of what
    the SLO gates see. *)
val serve :
  t ->
  tid:int ->
  extra_wins:Obs.Window.t array ->
  item list ->
  Protocol.resp list
