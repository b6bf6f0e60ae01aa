(* Correctness audit of one run, from the client's own records.

   Every write carries a unique tag (see [Gen.tag]), so any value read
   back names the write that produced it.  A value is sound when it
   comes from a write to that key that did not fail and — for a final
   value — was acked, with no other acked write to that key sent after
   its ack arrived.  Send times are taken before the request is written
   and ack times after the reply is read, so the comparison can only
   err towards accepting.

   The logs hold millions of entries per run, so they are packed arrays
   that grow by doubling: a record per write or read would load the
   load generator's GC and show in the latencies it measures. *)

type status = Pending | Acked | Failed

let status_code = function Pending -> '\000' | Acked -> '\001' | Failed -> '\002'

(* One writer's writes of one kind, indexed by sequence number. *)
type log = {
  mutable target : int array;  (** point key or group index *)
  mutable t_send : float array;
  mutable t_ack : float array;
  mutable status : Bytes.t;
  mutable n : int;
}

let log () =
  { target = Array.make 1024 0; t_send = Array.make 1024 0.; t_ack = Array.make 1024 0.; status = Bytes.make 1024 '\000'; n = 0 }

let grow a n fill =
  let b = Array.make (2 * n) fill in
  Array.blit a 0 b 0 n;
  b

(* Append a write about to be sent; returns its sequence number, which
   is [l.n] before the call. *)
let record l ~target ~t_send =
  let i = l.n in
  if i = Array.length l.target then begin
    l.target <- grow l.target i 0;
    l.t_send <- grow l.t_send i 0.;
    l.t_ack <- grow l.t_ack i 0.;
    l.status <- Bytes.extend l.status 0 i
  end;
  l.target.(i) <- target;
  l.t_send.(i) <- t_send;
  Bytes.set l.status i (status_code Pending);
  l.n <- i + 1;
  i

let ack l seq ~t =
  l.t_ack.(seq) <- t;
  Bytes.set l.status seq (status_code Acked)

let fail l seq = Bytes.set l.status seq (status_code Failed)
let status l seq = match Bytes.get l.status seq with '\001' -> Acked | '\002' -> Failed | _ -> Pending

(* A value read during the run. *)
type seen = Missing | Garbled of string | Tag of Gen.tag

(* GET results of one reader: key, packed value, reply time. *)
type reads = {
  mutable key : int array;
  mutable code : int array;  (** -1 missing, -2 garbled, else packed tag *)
  mutable at : float array;
  mutable rn : int;
  mutable garbled : (int * string) list;
}

let reads () = { key = Array.make 1024 0; code = Array.make 1024 0; at = Array.make 1024 0.; rn = 0; garbled = [] }

let pack (t : Gen.tag) = (t.seq lsl 9) lor (t.writer lsl 1) lor match t.kind with Point -> 0 | Group -> 1

let unpack c : Gen.tag =
  { kind = (if c land 1 = 0 then Point else Group); writer = (c lsr 1) land 0xff; seq = c lsr 9 }

let add_read r ~key seen ~t_reply =
  let i = r.rn in
  if i = Array.length r.key then begin
    r.key <- grow r.key i 0;
    r.code <- grow r.code i 0;
    r.at <- grow r.at i 0.
  end;
  r.key.(i) <- key;
  r.code.(i) <-
    (match seen with
    | Missing -> -1
    | Garbled v ->
        r.garbled <- (key, v) :: r.garbled;
        -2
    | Tag t -> pack t);
  r.at.(i) <- t_reply;
  r.rn <- i + 1

type t = {
  points : int;
  groups : int;
  plogs : log array;  (** point writes of writer i+1 *)
  glogs : log array;  (** group writes of writer i+1 *)
  mutable last : (float array * float array) option;
  mutable violations : int;
  mutable examples : string list;
}

let create ~points ~groups ~writers =
  {
    points;
    groups;
    plogs = Array.init writers (fun _ -> log ());
    glogs = Array.init writers (fun _ -> log ());
    last = None;
    violations = 0;
    examples = [];
  }

let violate a fmt =
  Printf.ksprintf
    (fun s ->
      a.violations <- a.violations + 1;
      if a.violations <= 10 then a.examples <- s :: a.examples)
    fmt

let examples a = List.rev a.examples

(* Per target, the latest send time of an acked write (computed once,
   after every write has settled). *)
let last_acked_send a (kind : Gen.kind) =
  let p, g =
    match a.last with
    | Some l -> l
    | None ->
        let fill n logs =
          let last = Array.make n neg_infinity in
          Array.iter
            (fun l ->
              for i = 0 to l.n - 1 do
                let k = l.target.(i) in
                if status l i = Acked && l.t_send.(i) > last.(k) then last.(k) <- l.t_send.(i)
              done)
            logs;
          last
        in
        let l = (fill a.points a.plogs, fill a.groups a.glogs) in
        a.last <- Some l;
        l
  in
  match kind with Point -> p | Group -> g

let name (kind : Gen.kind) target =
  match kind with Point -> Gen.point_key target | Group -> Printf.sprintf "group %d" target

(* Why [tag] must not be the value of [target], if it must not.
   [t_reply] bounds when the value was seen; [final] applies the
   acked-and-not-overwritten rule. *)
let origin_error a (kind : Gen.kind) target (tag : Gen.tag) ~t_reply ~final =
  if tag.kind <> kind then Some "value of the wrong kind"
  else if tag.writer = 0 then
    if tag.seq <> target then Some "preload value of another key"
    else if final && (last_acked_send a kind).(target) > neg_infinity then
      Some "stale: preload value outlived an acked write"
    else None
  else
    let logs = match kind with Point -> a.plogs | Group -> a.glogs in
    if tag.writer > Array.length logs || tag.seq < 0 || tag.seq >= logs.(tag.writer - 1).n then
      Some (Printf.sprintf "value of unknown write %d.%d" tag.writer tag.seq)
    else
      let l = logs.(tag.writer - 1) and i = tag.seq in
      if l.target.(i) <> target then Some "value of a write to another key"
      else if l.t_send.(i) > t_reply then Some "value seen before its write was sent"
      else
        match status l i with
        | Failed -> Some "a failed write surfaced"
        | Pending when final -> Some "an unacked write surfaced"
        | Acked when final && (last_acked_send a kind).(target) > l.t_ack.(i) ->
            Some "stale: an acked write sent after this value's ack was lost"
        | Pending | Acked -> None

let check_origin a kind target tag ~t_reply ~final ~what =
  match origin_error a kind target tag ~t_reply ~final with
  | None -> ()
  | Some why -> violate a "%s %s: %s (%d.%d)" what (name kind target) why tag.writer tag.seq

(* A value seen by a GET during the run. *)
let check_seen a target seen ~t_reply =
  match seen with
  | Missing -> violate a "GET %s: key missing" (Gen.point_key target)
  | Garbled v -> violate a "GET %s: unreadable value %S" (Gen.point_key target) v
  | Tag tag -> check_origin a Point target tag ~t_reply ~final:false ~what:"GET"

let check_reads a r =
  List.iter (fun (k, v) -> check_seen a k (Garbled v) ~t_reply:0.) r.garbled;
  for i = 0 to r.rn - 1 do
    match r.code.(i) with
    | -2 -> ()
    | -1 -> check_seen a r.key.(i) Missing ~t_reply:r.at.(i)
    | c -> check_seen a r.key.(i) (Tag (unpack c)) ~t_reply:r.at.(i)
  done

(* The final value of one point key. *)
let check_point a i v =
  match v with
  | None -> violate a "final %s: key missing" (Gen.point_key i)
  | Some v -> (
      match Gen.tag_of_value v with
      | None -> violate a "final %s: unreadable value %S" (Gen.point_key i) v
      | Some tag -> check_origin a Point i tag ~t_reply:infinity ~final:true ~what:"final")

(* The tag all keys of a group carry, or a reason they do not. *)
let group_tag vs =
  match vs with
  | [] -> Error "no keys"
  | _ -> (
      let tags = List.map (fun v -> Option.bind v Gen.tag_of_value) vs in
      match tags with
      | Some t :: rest when List.for_all (fun x -> x = Some t) rest -> Ok t
      | _ when List.mem None tags -> Error "key missing or unreadable"
      | _ -> Error "split group: keys carry different tags")

(* The final values of one group's keys, in key order. *)
let check_group a g vs =
  if List.length vs <> Gen.group_size then violate a "final group %d: %d keys" g (List.length vs)
  else
    match group_tag vs with
    | Error why -> violate a "final group %d: %s" g why
    | Ok tag -> check_origin a Group g tag ~t_reply:infinity ~final:true ~what:"final"

(* One SCAN result for prefix [p]: every group under the prefix must
   appear whole, with one tag. *)
let check_scan a p kvs ~t_reply =
  let first = p * Gen.scan_groups in
  let slots = Array.make_matrix Gen.scan_groups Gen.group_size None in
  List.iter
    (fun (k, v) ->
      match Gen.parse_group_key k with
      | Some (g, j) when g >= first && g < first + Gen.scan_groups && j < Gen.group_size ->
          slots.(g - first).(j) <- Some v
      | _ -> violate a "SCAN %s: key %S outside the prefix" (Gen.scan_prefix p) k)
    kvs;
  Array.iteri
    (fun i vs ->
      let g = first + i in
      if g < a.groups then
        match group_tag (Array.to_list vs) with
        | Error why -> violate a "SCAN %s: group %d: %s" (Gen.scan_prefix p) g why
        | Ok tag -> check_origin a Group g tag ~t_reply ~final:false ~what:"SCAN")
    slots
