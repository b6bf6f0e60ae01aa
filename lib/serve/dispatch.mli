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
    passed to {!serve_one} is indexed the same way. *)
val win_names : string array

(** Execute one request under the [Serve_op] trace span, recording the
    op-class windows (the global set plus [extra_wins], the reactor's
    own) and the [serve.request_ns] histogram.  [deadline] is absolute
    ([Unix.gettimeofday]; 0. = none): expired requests answer the
    retryable [Timeout].  [t_in] is the request's ingress time: the
    recorded span starts there, so queueing delay — e.g. behind a
    stalled reactor — is part of what the SLO gates see. *)
val serve_one :
  t ->
  tid:int ->
  env:Protocol.env ->
  deadline:float ->
  extra_wins:Obs.Window.t array ->
  t_in:float ->
  Protocol.req ->
  Protocol.resp
