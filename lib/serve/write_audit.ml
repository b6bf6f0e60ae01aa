(* The exactly-once write audit (see write_audit.mli). *)

type outcome = Acked | Ambiguous | Failed

type write = { tok : int; kvs : (string * string) list; outcome : outcome }

type violation =
  | Mangled
  | Half_applied
  | Acked_missing
  | Aborted_with_keys
  | Duplicated_commit
  | Unknown_after_quiesce
  | Unacked_present
  | Unreadable

let classes =
  [
    Mangled;
    Half_applied;
    Acked_missing;
    Aborted_with_keys;
    Duplicated_commit;
    Unknown_after_quiesce;
    Unacked_present;
    Unreadable;
  ]

let class_name = function
  | Mangled -> "mangled"
  | Half_applied -> "half_applied"
  | Acked_missing -> "acked_missing"
  | Aborted_with_keys -> "aborted_with_keys"
  | Duplicated_commit -> "duplicated_commit"
  | Unknown_after_quiesce -> "unknown_after_quiesce"
  | Unacked_present -> "unacked_present"
  | Unreadable -> "unreadable"

type reader = {
  read : string list -> (string option, string) result list;
  txstat : int -> (Ledger.tx_status, string) result;
}

let engine_reader e =
  {
    read = List.map (fun k -> Result.map_error Engine.pp_error (Engine.get e ~tid:0 k));
    txstat = (fun tok -> Result.map_error Engine.pp_error (Engine.txstat e ~tid:0 tok));
  }

let client_error : Client.error -> string = function
  | `Overloaded -> "overloaded"
  | `Unavailable d -> "unavailable: " ^ d
  | `Shard_down s -> Printf.sprintf "shard %d unavailable" s
  | `InDoubt txid -> Printf.sprintf "in doubt (txid %d)" txid
  | `Timeout -> "timeout"
  | `Err e -> e

(* The first [n] elements of [l] and the rest. *)
let split n l =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go n [] l

let wire_reader cl =
  let chunk keys =
    match Client.mget cl keys with
    | Ok vs when List.compare_lengths vs keys = 0 -> List.map Result.ok vs
    | Ok _ -> List.map (fun _ -> Error "MGET answered a different key count") keys
    | Error err -> List.map (fun _ -> Error (client_error err)) keys
    | exception Client.Protocol_error d -> List.map (fun _ -> Error d) keys
  in
  let rec read acc = function
    | [] -> List.rev acc
    | keys ->
        let now, rest = split 64 keys in
        read (List.rev_append (chunk now) acc) rest
  in
  {
    read = read [];
    txstat =
      (fun tok ->
        match Client.txstat cl tok with
        | Ok st -> Ok st
        | Error err -> Error (client_error err)
        | exception Client.Protocol_error d -> Error d);
  }

type report = {
  acked : int;
  ambiguous : int;
  failed : int;
  applied_unacked : int;
  counts : (violation * int) list;
  messages : string list;
}

let check r writes =
  let counts = Hashtbl.create 8 and messages = ref [] in
  let acked = ref 0 and ambiguous = ref 0 and failed = ref 0 in
  let applied_unacked = ref 0 in
  let violate cls fmt =
    Printf.ksprintf
      (fun m ->
        Hashtbl.replace counts cls (1 + Option.value (Hashtbl.find_opt counts cls) ~default:0);
        messages := m :: !messages)
      fmt
  in
  let audit w answers =
    let who =
      if w.tok > 0 then Printf.sprintf "token %d" w.tok
      else Printf.sprintf "write %s" (match w.kvs with (k, _) :: _ -> k | [] -> "<empty>")
    in
    incr (match w.outcome with Acked -> acked | Ambiguous -> ambiguous | Failed -> failed);
    let n = List.length w.kvs in
    let present = ref 0 and readable = ref true in
    List.iteri
      (fun i (k, want) ->
        match List.nth_opt answers i with
        | Some (Ok None) -> ()
        | Some (Ok (Some got)) ->
            incr present;
            if got <> want then violate Mangled "%s: key %s mangled: got %s want %s" who k got want
        | Some (Error d) ->
            readable := false;
            violate Unreadable "%s: audit read of %s failed (%s)" who k d
        | None ->
            readable := false;
            violate Unreadable "%s: audit read of %s got no answer" who k)
      w.kvs;
    let present = !present and readable = !readable in
    let whole = present = n in
    (* Presence speaks only when every key was read; a token's ledger
       answer speaks regardless. *)
    if readable && present > 0 && not whole then
      violate Half_applied "%s half-applied: %d/%d keys durable" who present n;
    if w.tok = 0 then (
      if readable then
        match w.outcome with
        | Acked ->
            if not whole then violate Acked_missing "ACKED %s lost: %d/%d keys durable" who present n
        | Ambiguous -> if whole then incr applied_unacked
        | Failed ->
            if present > 0 then
              violate Unacked_present "%s was refused, yet %d/%d keys are durable" who present n)
    else
      match r.txstat w.tok with
      | Error d -> violate Unreadable "%s: audit TXSTAT failed (%s)" who d
      | Ok (Ledger.Tx_committed { records; _ }) ->
          if w.outcome <> Acked then incr applied_unacked;
          if records <> 1 then
            violate Duplicated_commit "%s: duplicated commit (%d outcome records)" who records;
          if readable && not whole then
            violate Acked_missing "%s %s lost: %d/%d keys durable"
              (if w.outcome = Acked then "ACKED" else "committed")
              who present n
      | Ok Ledger.Tx_aborted ->
          if w.outcome = Acked then
            violate Acked_missing "ACKED %s not committed in the ledger (TXSTAT aborted)" who
          else if readable && present > 0 then
            violate Aborted_with_keys "aborted %s left %d/%d keys behind" who present n
      | Ok Ledger.Tx_unknown ->
          violate Unknown_after_quiesce "%s neither committed nor aborted after quiesce" who
  in
  let rec walk answers = function
    | [] -> ()
    | w :: rest ->
        let mine, others = split (List.length w.kvs) answers in
        audit w mine;
        walk others rest
  in
  walk (r.read (List.concat_map (fun w -> List.map fst w.kvs) writes)) writes;
  {
    acked = !acked;
    ambiguous = !ambiguous;
    failed = !failed;
    applied_unacked = !applied_unacked;
    counts =
      List.map (fun c -> (c, Option.value (Hashtbl.find_opt counts c) ~default:0)) classes;
    messages = List.rev !messages;
  }

let count rep cls = List.assoc cls rep.counts
let total rep = List.fold_left (fun n (_, k) -> n + k) 0 rep.counts
