(* The server under test as a child process, and the /proc readers the
   benchmark takes its memory and CPU numbers from. *)

(* Fixed server setup; identical on both sides of every comparison.
   The capacity is a quarter of the 16 MiB the design started from: a
   server preallocates about 75 bytes of RSS per byte of capacity. *)
let capacity_bytes = 4 lsl 20
let flush_cost = 150
let shards = 4
let workers = 4
let max_batch = 16
let queue_cap = 256

let server_args =
  [
    "--port"; "0";
    "--reactors"; "1";
    "--workers"; string_of_int workers;
    "--shards"; string_of_int shards;
    "--max-batch"; string_of_int max_batch;
    "--linger-us"; "0";
    "--queue-cap"; string_of_int queue_cap;
    "--max-conns"; "8";
    "--capacity-bytes"; string_of_int capacity_bytes;
    "--flush-cost"; string_of_int flush_cost;
  ]

let banner_timeout_s = 30.

(* redobench.exe is built to <build>/bench/e2e, the server to <build>/bin. *)
let server_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../../bin/redodb_server.exe"

type t = {
  pid : int;
  mutable port : int;  (* from the banner *)
  out : Unix.file_descr;  (* the child's stdout *)
  mutable status : Unix.process_status option;  (* once reaped *)
}

(* Children not yet reaped; killed on any exit of the benchmark. *)
let live : t list ref = ref []

let reap_now t st =
  t.status <- Some st;
  live := List.filter (fun c -> c.pid <> t.pid) !live;
  (try Unix.close t.out with Unix.Unix_error _ -> ())

let rec waitpid flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

let signal pid s = try Unix.kill pid s with Unix.Unix_error _ -> ()

(* SIGTERM (the server drains and writes its trace), then SIGKILL if it
   has not exited within [grace] seconds.  Returns the exit status. *)
let stop ?(grace = 10.) t =
  match t.status with
  | Some st -> st
  | None ->
      signal t.pid Sys.sigterm;
      let deadline = Unix.gettimeofday () +. grace in
      let rec poll () =
        match waitpid [ Unix.WNOHANG ] t.pid with
        | 0, _ when Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.01;
            poll ()
        | 0, _ ->
            signal t.pid Sys.sigkill;
            snd (waitpid [] t.pid)
        | _, st -> st
      in
      let st = poll () in
      reap_now t st;
      st

let kill_all () =
  List.iter
    (fun t ->
      signal t.pid Sys.sigkill;
      reap_now t (snd (waitpid [] t.pid)))
    !live

let () = at_exit kill_all

let alive t =
  match t.status with
  | Some _ -> false
  | None -> (
      match waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ -> true
      | _, st ->
          reap_now t st;
          false)

let signal_name s =
  List.assoc_opt s
    [ (Sys.sigkill, "SIGKILL"); (Sys.sigterm, "SIGTERM"); (Sys.sigsegv, "SIGSEGV"); (Sys.sigabrt, "SIGABRT"); (Sys.sigint, "SIGINT") ]
  |> Option.value ~default:(Printf.sprintf "signal %d (OCaml numbering)" s)

let describe = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED s -> "killed by " ^ signal_name s
  | Unix.WSTOPPED s -> "stopped by " ^ signal_name s

(* Start a server and wait for its "listening on HOST:PORT" banner. *)
let spawn ?(extra = []) () =
  let exe = server_exe () in
  if not (Sys.file_exists exe) then failwith ("server binary not found: " ^ exe);
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list ((exe :: server_args) @ extra)) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let t = { pid; port = 0; out = r; status = None } in
  live := t :: !live;
  let deadline = Unix.gettimeofday () +. banner_timeout_s in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec line () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> Buffer.sub buf 0 i
    | None -> (
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then failwith "server printed no banner within 30 s";
        match Unix.select [ r ] [] [] left with
        | [], _, _ -> line ()
        | _ ->
            let n = Unix.read r chunk 0 (Bytes.length chunk) in
            if n = 0 then failwith "server exited before printing its banner";
            Buffer.add_subbytes buf chunk 0 n;
            line ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> line ())
  in
  match Scanf.sscanf (line ()) "redodb_server listening on %_[^:]:%d" Fun.id with
  | port ->
      t.port <- port;
      t
  | exception e ->
      ignore (stop ~grace:1. t);
      raise (match e with Failure _ -> e | _ -> Failure "server banner did not name a port")

(* ---- /proc ---- *)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* Peak resident set (VmHWM) of [pid] ("self" for this process), MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* User + system CPU seconds of [pid], from /proc/<pid>/stat fields 14
   and 15 (in USER_HZ = 100 ticks per second). *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.

(* Host facts recorded beside the baseline. *)
let cpu_model () =
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix:"model name" l)
      (String.split_on_char '\n' (read_file "/proc/cpuinfo"))
  with
  | Some l -> String.trim (List.nth (String.split_on_char ':' l) 1)
  | None -> "unknown"

let nproc () =
  List.length
    (List.filter
       (fun l -> String.starts_with ~prefix:"processor" l)
       (String.split_on_char '\n' (read_file "/proc/cpuinfo")))
