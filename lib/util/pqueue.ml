(* Binary min-heap over (priority, insertion sequence), stored as parallel
   arrays so a push allocates nothing once the arrays are large enough:
   the simulator pushes once per issued instruction. Sifting moves a hole
   instead of swapping, and the sequence number breaks priority ties in
   insertion (FIFO) order. *)
type 'a t = {
  mutable prios : int array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { prios = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0
let length t = t.size

(* slot [i] pops before an element with priority [p] and sequence [s] *)
let before t i p s =
  let pi = t.prios.(i) in
  pi < p || (pi = p && t.seqs.(i) < s)

let set t i p s v =
  t.prios.(i) <- p;
  t.seqs.(i) <- s;
  t.values.(i) <- v

let move t ~src ~dst = set t dst t.prios.(src) t.seqs.(src) t.values.(src)

(* [v] only fills the fresh value slots; they are overwritten before use *)
let grow t v =
  let ncap = max 16 (2 * Array.length t.prios) in
  let extend a fill =
    let fresh = Array.make ncap fill in
    Array.blit a 0 fresh 0 t.size;
    fresh
  in
  t.prios <- extend t.prios 0;
  t.seqs <- extend t.seqs 0;
  t.values <- extend t.values v

let push t prio value =
  if t.size = Array.length t.prios then grow t value;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && not (before t ((!i - 1) / 2) prio seq) do
    let parent = (!i - 1) / 2 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  set t !i prio seq value

(* place (p, s, v) at the root hole and sift it down *)
let sift_down t p s v =
  let n = t.size in
  let i = ref 0 in
  let settled = ref false in
  while not !settled do
    let l = (2 * !i) + 1 in
    if l >= n then settled := true
    else begin
      let r = l + 1 in
      let c = if r < n && before t r t.prios.(l) t.seqs.(l) then r else l in
      if before t c p s then begin
        move t ~src:c ~dst:!i;
        i := c
      end
      else settled := true
    end
  done;
  set t !i p s v

let drop_min t =
  if t.size > 0 then begin
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then sift_down t t.prios.(last) t.seqs.(last) t.values.(last)
  end

let pop t =
  if t.size = 0 then None
  else begin
    let top = (t.prios.(0), t.values.(0)) in
    drop_min t;
    Some top
  end

let peek t = if t.size = 0 then None else Some (t.prios.(0), t.values.(0))

let min_prio t = if t.size = 0 then max_int else t.prios.(0)

let min_value t =
  if t.size = 0 then invalid_arg "Pqueue.min_value: empty";
  t.values.(0)
