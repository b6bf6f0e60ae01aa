(* Byte mark per line (dedup) + append-only array of marked lines
   (insertion-ordered iteration, O(marked) clear).  See line_set.mli. *)

type t = { marks : Bytes.t; mutable lines : int array; mutable count : int }

let create ~lines =
  if lines < 0 then invalid_arg "Line_set.create: negative size";
  { marks = Bytes.make lines '\000'; lines = Array.make 64 0; count = 0 }

let add t line =
  if Bytes.get t.marks line = '\000' then begin
    if t.count = Array.length t.lines then begin
      let bigger = Array.make (2 * t.count) 0 in
      Array.blit t.lines 0 bigger 0 t.count;
      t.lines <- bigger
    end;
    t.lines.(t.count) <- line;
    t.count <- t.count + 1;
    Bytes.unsafe_set t.marks line '\001'
  end

let mem t line = Bytes.get t.marks line <> '\000'
let length t = t.count

let iter f t =
  for i = 0 to t.count - 1 do
    f t.lines.(i)
  done

let clear t =
  for i = 0 to t.count - 1 do
    Bytes.unsafe_set t.marks t.lines.(i) '\000'
  done;
  t.count <- 0
