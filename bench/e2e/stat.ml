(* Sample buffers, percentiles and quartiles. *)

(* Growable float buffer. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let sorted bs =
    let a = Array.concat (List.map (fun b -> Array.sub b.a 0 b.n) bs) in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank percentile of a sorted array ([q] in (0, 1]). *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* A p99 needs ten samples beyond it. *)
let min_p99_samples = 1000

let p99 sorted =
  if Array.length sorted < min_p99_samples then None else Some (percentile sorted 0.99)

let median values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(values, n=4)] (the default "exclusive"
   method): the first and third quartile.  Needs two values. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld < 2 then invalid_arg "quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 3)
