(* Edge-triggered epoll event loop running effect fibers.  See aio.mli.

   Everything a loop owns (fd table, ready queue, timer heap, live
   count) is mutated only from the loop's own domain — fibers are
   cooperative and interleave solely at suspension points, so none of
   it needs a lock.  The one cross-domain door is [post]: a mutex-
   guarded queue plus a self-pipe byte that bounces the loop out of the
   kernel wait. *)

module A = Stdlib.Atomic

external int_of_fd : Unix.file_descr -> int = "%identity"
external epoll_supported : unit -> bool = "aio_epoll_supported"
external epoll_create : unit -> int = "aio_epoll_create"
external epoll_ctl : int -> int -> int -> unit = "aio_epoll_ctl"
external epoll_wait : int -> int -> int array -> int = "aio_epoll_wait"

type waited = [ `Ready | `Timed_out ]

(* One suspended wait; [result] is [None] until its fate is sealed.
   Cancellation (timeout, close) seals it rather than unlinking: the
   wake and timer paths skip sealed waiters, so a record may sit in a
   list or the heap after its fate is sealed without being resumed
   twice. *)
type waiter = { mutable result : waited option; mutable resume : unit -> unit }

let pending w = Option.is_none w.result

type fdrec = {
  ufd : Unix.file_descr;  (* for the select backend and close *)
  mutable r_ready : bool;  (* edge seen while nobody waited *)
  mutable w_ready : bool;
  mutable rq : waiter list;
  mutable wq : waiter list;
}

(* Binary min-heap of deadline timers. *)
module Heap = struct
  type e = { at : float; tf : unit -> unit }
  type t = { mutable a : e array; mutable n : int }

  let dummy = { at = 0.; tf = ignore }
  let make () = { a = Array.make 16 dummy; n = 0 }

  let push h e =
    if h.n = Array.length h.a then begin
      let a' = Array.make (2 * h.n) dummy in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    let i = ref h.n in
    h.n <- h.n + 1;
    h.a.(!i) <- e;
    while !i > 0 && h.a.((!i - 1) / 2).at > h.a.(!i).at do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let peek h = if h.n = 0 then None else Some h.a.(0)

  let pop h =
    let top = h.a.(0) in
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    h.a.(h.n) <- dummy;
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < h.n && h.a.(l).at < h.a.(!s).at then s := l;
      if r < h.n && h.a.(r).at < h.a.(!s).at then s := r;
      if !s = !i then continue_ := false
      else begin
        let tmp = h.a.(!s) in
        h.a.(!s) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !s
      end
    done;
    top
end

type backend = Epoll of int | Select

type loop = {
  backend : backend;
  fds : (int, fdrec) Hashtbl.t;
  ready : (unit -> unit) Queue.t;
  timers : Heap.t;
  posted : (unit -> unit) Queue.t;  (* guarded by pmx *)
  pmx : Mutex.t;
  wake_rd : Unix.file_descr;
  wake_wr : Unix.file_descr;
  wake_scratch : Bytes.t;
  mutable live : int;
  stop_flag : bool A.t;
  mutable running : bool;
  evbuf : int array;
  ltid : int;
}

(* aio.* counters, shared by every loop; [ltid] separates their
   per-thread shards. *)
let c_polls = Obs.Metrics.counter "aio.polls"
let c_posts = Obs.Metrics.counter "aio.posts"
let c_spawned = Obs.Metrics.counter "aio.fibers.spawned"
let c_raised = Obs.Metrics.counter "aio.fibers.raised"
let c_waits = Obs.Metrics.counter "aio.io.waits"
let c_timeouts = Obs.Metrics.counter "aio.io.timeouts"
let c_timers = Obs.Metrics.counter "aio.timers.fired"
let c_wakeups = Obs.Metrics.counter "aio.wakeups"

let cur : loop option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let active () = Domain.DLS.get cur <> None

let create ?(tid = 0) () =
  let backend = if epoll_supported () then Epoll (epoll_create ()) else Select in
  let wake_rd, wake_wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_rd;
  Unix.set_nonblock wake_wr;
  (match backend with
  | Epoll ep -> epoll_ctl ep 0 (int_of_fd wake_rd)
  | Select -> ());
  {
    backend;
    fds = Hashtbl.create 64;
    ready = Queue.create ();
    timers = Heap.make ();
    posted = Queue.create ();
    pmx = Mutex.create ();
    wake_rd;
    wake_wr;
    wake_scratch = Bytes.create 64;
    live = 0;
    stop_flag = A.make false;
    running = false;
    evbuf = Array.make 512 0;
    ltid = tid;
  }

let add_timer l at tf =
  Heap.push l.timers { Heap.at; tf }

let push_ready l f = Queue.push f l.ready

let getrec l fd =
  let fdi = int_of_fd fd in
  match Hashtbl.find_opt l.fds fdi with
  | Some r -> r
  | None ->
      let r = { ufd = fd; r_ready = false; w_ready = false; rq = []; wq = [] } in
      Hashtbl.add l.fds fdi r;
      (match l.backend with
      | Epoll ep -> epoll_ctl ep 0 fdi
      | Select -> ());
      r

(* Seal a pending waiter's result and resume it; a sealed one is left
   alone. *)
let settle w v =
  if pending w then begin
    w.result <- Some v;
    w.resume ()
  end

let add_waiter l r ~write deadline wt =
  if write then r.wq <- wt :: r.wq else r.rq <- wt :: r.rq;
  if Obs.Metrics.is_on () then Obs.Metrics.incr c_waits ~tid:l.ltid;
  if deadline > 0. then
    add_timer l deadline (fun () ->
        if pending wt then Obs.Metrics.incr c_timeouts ~tid:l.ltid;
        settle wt `Timed_out)

(* Wake one direction of an fd: resume every pending waiter, or record
   the edge in the sticky flag when nobody is listening. *)
let wake_dir r ~write =
  let q = if write then r.wq else r.rq in
  let waiting = List.filter pending q in
  if write then r.wq <- [] else r.rq <- [];
  if waiting = [] then begin
    if write then r.w_ready <- true else r.r_ready <- true
  end
  else List.iter (fun w -> settle w `Ready) waiting

let drain_wake_pipe l =
  let rec go () =
    match Unix.read l.wake_rd l.wake_scratch 0 (Bytes.length l.wake_scratch) with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
  in
  go ()

(* ---- fibers ---- *)

let start_fiber l f =
  Park.fiber
    ~finished:(fun () -> l.live <- l.live - 1)
    ~raised:(fun e ->
      l.live <- l.live - 1;
      Obs.Metrics.incr c_raised ~tid:l.ltid;
      Printf.eprintf "aio: fiber raised %s\n%!" (Printexc.to_string e))
    f

let spawn_on l f =
  l.live <- l.live + 1;
  if Obs.Metrics.is_on () then Obs.Metrics.incr c_spawned ~tid:l.ltid;
  push_ready l (fun () -> start_fiber l f)

let spawn f =
  match Domain.DLS.get cur with
  | Some l -> spawn_on l f
  | None -> invalid_arg "Aio.spawn: not inside a running loop"

let post l f =
  Mutex.lock l.pmx;
  Queue.push f l.posted;
  Mutex.unlock l.pmx;
  Obs.Metrics.incr c_posts ~tid:l.ltid;
  (* A full pipe already guarantees a pending wakeup. *)
  try ignore (Unix.write l.wake_wr (Bytes.of_string "w") 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()

let stop l =
  A.set l.stop_flag true;
  try ignore (Unix.write l.wake_wr (Bytes.of_string "s") 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()

let drain_posted l =
  Mutex.lock l.pmx;
  let batch = Queue.length l.posted in
  let fs = List.init batch (fun _ -> Queue.pop l.posted) in
  Mutex.unlock l.pmx;
  if fs <> [] then Obs.Metrics.incr c_wakeups ~tid:l.ltid;
  List.iter (fun f -> spawn_on l f) fs

let fire_due_timers l =
  let now = Unix.gettimeofday () in
  let rec go () =
    match Heap.peek l.timers with
    | Some e when e.Heap.at <= now ->
        ignore (Heap.pop l.timers);
        if Obs.Metrics.is_on () then Obs.Metrics.incr c_timers ~tid:l.ltid;
        e.Heap.tf ();
        go ()
    | _ -> ()
  in
  go ()

let next_timer l = Option.map (fun e -> e.Heap.at) (Heap.peek l.timers)

let dispatch l fdi flags =
  if fdi = int_of_fd l.wake_rd then drain_wake_pipe l
  else
    match Hashtbl.find_opt l.fds fdi with
    | None -> ()  (* closed while the event was in flight *)
    | Some r ->
        if flags land 1 <> 0 then wake_dir r ~write:false;
        if flags land 2 <> 0 then wake_dir r ~write:true

(* One kernel wait.  [timeout] seconds; negative = block until an
   event, a post, or stop. *)
let poll l timeout =
  if Obs.Metrics.is_on () then Obs.Metrics.incr c_polls ~tid:l.ltid;
  match l.backend with
  | Epoll ep ->
      let ms =
        if timeout < 0. then -1
        else if timeout = 0. then 0
        else max 1 (int_of_float (ceil (timeout *. 1000.)))
      in
      let n = epoll_wait ep ms l.evbuf in
      for i = 0 to n - 1 do
        dispatch l l.evbuf.(2 * i) l.evbuf.((2 * i) + 1)
      done
  | Select ->
      let rd = ref [ l.wake_rd ] and wr = ref [] in
      Hashtbl.iter
        (fun _ r ->
          if List.exists pending r.rq then rd := r.ufd :: !rd;
          if List.exists pending r.wq then wr := r.ufd :: !wr)
        l.fds;
      let tmo = if timeout < 0. then -1. else timeout in
      (match Unix.select !rd !wr [] tmo with
      | r, w, _ ->
          List.iter (fun fd -> dispatch l (int_of_fd fd) 1) r;
          List.iter (fun fd -> dispatch l (int_of_fd fd) 2) w
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())

(* ---- fiber-facing API ---- *)

(* Every suspension is the one fiber effect; each registers the resume
   where its wake comes from, and the wake moves it to the ready queue. *)
let suspend_on l register =
  Effect.perform (Park.Suspend (fun k -> register (fun () -> push_ready l k)))

let yield () =
  match Domain.DLS.get cur with
  | Some l -> Effect.perform (Park.Suspend (push_ready l))
  | None -> ()

let sleep s =
  match Domain.DLS.get cur with
  | Some l when s > 0. ->
      suspend_on l (add_timer l (Unix.gettimeofday () +. s))
  | Some _ -> yield ()
  | None -> if s > 0. then Unix.sleepf s

(* The loop's park record: a spinning fiber yields to its siblings, and
   past a burst parks on a timer so an idle loop does not spin its core. *)
let park_ops =
  {
    Park.pause = (fun n -> if n < 256 then yield () else sleep 5e-5);
    sleep;
    now_us = (fun () -> Unix.gettimeofday () *. 1e6);
  }

let run l main =
  if l.running then invalid_arg "Aio.run: loop already running";
  if active () then invalid_arg "Aio.run: nested run";
  l.running <- true;
  A.set l.stop_flag false;
  Domain.DLS.set cur (Some l);
  let restore () =
    l.running <- false;
    Domain.DLS.set cur None
  in
  Fun.protect ~finally:restore @@ fun () ->
  Park.within park_ops @@ fun () ->
  spawn_on l main;
  let stopped () = A.get l.stop_flag in
  let quiescent () =
    l.live = 0 && Queue.is_empty l.ready
    && Mutex.protect l.pmx (fun () -> Queue.is_empty l.posted)
  in
  while not (stopped () || quiescent ()) do
    drain_posted l;
    (* Run the current batch only: fibers readied during the batch wait
       for the next turn, giving timers and IO a look-in between. *)
    let batch = Queue.length l.ready in
    (let i = ref 0 in
     while !i < batch && not (stopped ()) do
       (match Queue.take_opt l.ready with Some f -> f () | None -> ());
       incr i
     done);
    fire_due_timers l;
    if not (stopped () || quiescent ()) then begin
      let timeout =
        if not (Queue.is_empty l.ready) then 0.
        else
          match next_timer l with
          | Some at -> max 0. (at -. Unix.gettimeofday ())
          | None -> -1.
      in
      poll l timeout
    end
  done

let suspend register =
  match Domain.DLS.get cur with
  | Some l -> suspend_on l register
  | None -> invalid_arg "Aio.suspend: not inside a running loop"

(* Blocking fallback used outside any loop, and so by every
   Protocol.Io and Client wait there: select, restarted on EINTR and
   spurious wakeups. *)
let blocking_wait fd ~write deadline =
  let rec go () =
    let tmo = if deadline > 0. then deadline -. Unix.gettimeofday () else -1. in
    if deadline > 0. && tmo <= 0. then `Timed_out
    else
      match
        Unix.select
          (if write then [] else [ fd ])
          (if write then [ fd ] else [])
          [] tmo
      with
      | [], [], _ -> go ()
      | _ -> `Ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let wait_io ~write ?(deadline = 0.) fd =
  match Domain.DLS.get cur with
  | None -> blocking_wait fd ~write deadline
  | Some l ->
      let r = getrec l fd in
      if write && r.w_ready then begin
        r.w_ready <- false;
        `Ready
      end
      else if (not write) && r.r_ready then begin
        r.r_ready <- false;
        `Ready
      end
      else if deadline > 0. && Unix.gettimeofday () >= deadline then `Timed_out
      else begin
        let wt = { result = None; resume = ignore } in
        suspend_on l (fun resume ->
            wt.resume <- resume;
            add_waiter l r ~write deadline wt);
        Option.get wt.result
      end

let wait_readable ?deadline fd = wait_io ~write:false ?deadline fd
let wait_writable ?deadline fd = wait_io ~write:true ?deadline fd

let close fd =
  (match Domain.DLS.get cur with
  | None -> ()
  | Some l -> (
      let fdi = int_of_fd fd in
      match Hashtbl.find_opt l.fds fdi with
      | None -> ()
      | Some r ->
          Hashtbl.remove l.fds fdi;
          (match l.backend with
          | Epoll ep -> ( try epoll_ctl ep 1 fdi with Unix.Unix_error _ -> ())
          | Select -> ());
          List.iter (fun w -> settle w `Ready) (r.rq @ r.wq)));
  try Unix.close fd with Unix.Unix_error _ -> ()
