(* Seconds on the monotonic clock, nanosecond resolution. *)
external now : unit -> (float[@unboxed]) = "redobench_now" "redobench_now_unboxed"
[@@noalloc]
