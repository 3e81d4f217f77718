open Memclust_util

type entry = {
  mutable ready : int;
  mutable has_read : bool;
  mutable has_write : bool;
  mutable prefetch_only : bool;  (* allocated by a prefetch, no demand yet *)
}

let none =
  { ready = max_int; has_read = false; has_write = false; prefetch_only = false }

(* A file holds at most [cap] entries (the hierarchy checks [full] before
   inserting), so the in-flight set is two short parallel arrays scanned
   linearly: a probe allocates nothing, unlike a hash-table lookup that
   returns an option. At most one entry per line — callers probe before
   they insert. *)
type t = {
  cap : int;
  lines : int array;
  ents : entry array;
  mutable n : int;
  (* min-heap of completion times, kept in sync with the arrays: every
     insertion pushes (ready, line), cleanup pops expired entries, so no
     per-cycle scan is needed *)
  expiry : int Pqueue.t;
  mutable read_occ : int;  (* entries with [has_read] *)
}

let create ~cap =
  {
    cap;
    lines = Array.make cap 0;
    ents = Array.make cap none;
    n = 0;
    expiry = Pqueue.create ();
    read_occ = 0;
  }

let capacity t = t.cap
let occupancy t = t.n
let read_occupancy t = t.read_occ
let full t = t.n >= t.cap

let index t line =
  let i = ref 0 in
  while !i < t.n && t.lines.(!i) <> line do
    incr i
  done;
  if !i < t.n then !i else -1

let find t line =
  let i = index t line in
  if i < 0 then none else t.ents.(i)

let mem t line = index t line >= 0

let insert t ~line e =
  t.lines.(t.n) <- line;
  t.ents.(t.n) <- e;
  t.n <- t.n + 1;
  Pqueue.push t.expiry e.ready line;
  if e.has_read then t.read_occ <- t.read_occ + 1

let note_read t = t.read_occ <- t.read_occ + 1

(* [ready] is immutable after insertion, so the heap never holds stale
   priorities: popping everything with [ready <= now] removes exactly the
   expired entries. Returns whether anything expired (a state change the
   event loop must observe). *)
let cleanup t ~now =
  let any = ref false in
  while Pqueue.min_prio t.expiry <= now do
    let i = index t (Pqueue.min_value t.expiry) in
    Pqueue.drop_min t.expiry;
    if i >= 0 then begin
      if t.ents.(i).has_read then t.read_occ <- t.read_occ - 1;
      let last = t.n - 1 in
      t.lines.(i) <- t.lines.(last);
      t.ents.(i) <- t.ents.(last);
      t.ents.(last) <- none;
      t.n <- last
    end;
    any := true
  done;
  !any

let next_ready t = Pqueue.min_prio t.expiry
