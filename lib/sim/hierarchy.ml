(* The per-processor memory hierarchy: a stack of cache levels (each with
   its own geometry, hit latency and MSHR file) terminating in the shared
   banked memory system. Owns the whole miss lifecycle — lookup, MSHR
   allocate/coalesce, fill, stale-version invalidation — and exposes only
   completion-time / retry signals to the pipeline in [Core].

   Semantics, kept bit-identical to the pre-refactor fixed L1(+L2) code on
   equal-line stacks:

   - A hit at level [k] costs that level's latency and fills every level
     above it (inclusion by refill). Intermediate-level hits are plain
     pipelined accesses: no MSHR is involved.
   - A miss past the last level allocates ONE shared {!Mshr.entry},
     inserted into every level's file under that level's own line key —
     a request occupies an MSHR at each level it passed through, so the
     smallest file in the stack bounds memory parallelism (lp), and a
     coalescing probe at any level finds the same entry.
   - Coherence and memory transfers are at the last level's line size.

   Every access path is allocation-free apart from the MSHR entry of a
   new memory miss: the simulator runs them billions of times. Loops
   stand in for closures and local recursive functions (which would
   allocate their environment per call), and results are plain ints with
   {!retry} as the "no MSHR" sentinel. *)

open Memclust_util

type shared = {
  cfg : Config.t;
  mem : Memsys.t;
  versions : (int, int) Hashtbl.t;
  home : int -> int;
  nprocs : int;
}

type level = {
  cache : Cache.t;
  mshr : Mshr.t;
  lat : int;
  lshift : int;  (* log2 line, or -1 when not a power of two *)
  lsize : int;
}

type t = {
  sh : shared;
  proc : int;
  levels : level array;
  coh_shift : int;  (* last level's line: coherence/transfer granularity *)
  coh_size : int;
  (* statistics *)
  level_hits : int array;  (* demand loads satisfied at each level *)
  level_misses : int array;  (* demand loads missing each level *)
  mutable mem_misses : int;  (* demand accesses that went to memory *)
  mutable read_misses : int;
  mutable read_miss_lat : int;  (* an int: a float field here would box *)
  mutable mshr_full_count : int;
  mutable prefetch_count : int;
  mutable prefetch_miss_count : int;  (* prefetches that went to memory *)
  mutable late_prefetch_count : int;
      (* demand loads catching an in-flight prefetch *)
}

let make_shared cfg ~nprocs ~home =
  { cfg; mem = Memsys.create cfg ~nprocs; versions = Hashtbl.create 4096; home; nprocs }

let log2_shift v =
  if v > 0 && v land (v - 1) = 0 then begin
    let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
    go v 0
  end
  else -1

let create sh ~proc =
  let levels =
    Array.of_list
      (List.map
         (fun (l : Config.level) ->
           {
             cache = Cache.create ~bytes:l.Config.bytes ~assoc:l.Config.assoc
                 ~line:l.Config.line;
             mshr = Mshr.create ~cap:l.Config.mshrs;
             lat = l.Config.lat;
             lshift = log2_shift l.Config.line;
             lsize = l.Config.line;
           })
         sh.cfg.Config.levels)
  in
  let n = Array.length levels in
  if n = 0 then invalid_arg "Hierarchy.create: config has no cache levels";
  let bottom = levels.(n - 1) in
  {
    sh;
    proc;
    levels;
    coh_shift = bottom.lshift;
    coh_size = bottom.lsize;
    level_hits = Array.make n 0;
    level_misses = Array.make n 0;
    mem_misses = 0;
    read_misses = 0;
    read_miss_lat = 0;
    mshr_full_count = 0;
    prefetch_count = 0;
    prefetch_miss_count = 0;
    late_prefetch_count = 0;
  }

let depth t = Array.length t.levels
let bottom t = t.levels.(Array.length t.levels - 1)

let coh_line t addr =
  if t.coh_shift >= 0 then addr lsr t.coh_shift else addr / t.coh_size

let level_line lvl addr =
  if lvl.lshift >= 0 then addr lsr lvl.lshift else addr / lvl.lsize

(* A line's coherence state is packed into one int, (version lsl 16) lor
   (last writer + 1), so a lookup returns an immediate and a write
   replaces the binding's value in place instead of allocating a tuple.
   Bound: writers are processor ids below 65535 (the lowering caps the
   processor count far lower); versions below 2^46, one bump per
   ownership change. An absent line packs to 0: version 0, no writer. *)
let writer_bits = 16
let writer_mask = (1 lsl writer_bits) - 1

let pack ~version ~writer = (version lsl writer_bits) lor (writer + 1)
let version_of c = c lsr writer_bits
let writer_of c = (c land writer_mask) - 1

let coherence t line =
  match Hashtbl.find t.sh.versions line with
  | c -> c
  | exception Not_found -> 0

(* this processor becomes the line's last writer, at [version] *)
let commit t line ~version =
  Hashtbl.replace t.sh.versions line (pack ~version ~writer:t.proc)

let miss_kind t ~writer ~home =
  if t.sh.nprocs = 1 then Memsys.Local
  else if writer >= 0 && writer <> t.proc then Memsys.Dirty_remote
  else if home = t.proc then Memsys.Local
  else Memsys.Remote

(* Coalescing probe: the in-flight miss covering [addr] at any level, or
   [Mshr.none]. Line sizes are non-decreasing toward memory, so addresses
   sharing an upper line share every line below — all levels hold the
   same entry set, just under their own keys; probing top-down finds the
   shared entry. *)
let find_inflight t addr =
  let found = ref Mshr.none in
  let k = ref 0 in
  while !found == Mshr.none && !k < Array.length t.levels do
    let lvl = t.levels.(!k) in
    found := Mshr.find lvl.mshr (level_line lvl addr);
    incr k
  done;
  !found

(* A memory-bound miss needs an entry in every file. *)
let any_full t =
  let full = ref false in
  for k = 0 to Array.length t.levels - 1 do
    if Mshr.full t.levels.(k).mshr then full := true
  done;
  !full

let allocate t addr ~ready ~has_read ~has_write ~prefetch_only =
  let e = { Mshr.ready; has_read; has_write; prefetch_only } in
  for k = 0 to Array.length t.levels - 1 do
    let lvl = t.levels.(k) in
    Mshr.insert lvl.mshr ~line:(level_line lvl addr) e
  done

let note_read t (e : Mshr.entry) =
  if not e.Mshr.has_read then begin
    e.Mshr.has_read <- true;
    for k = 0 to Array.length t.levels - 1 do
      Mshr.note_read t.levels.(k).mshr
    done
  end

let fill_above t k ~version ~addr =
  for i = 0 to k - 1 do
    Cache.fill t.levels.(i).cache ~version ~addr
  done

let fill_all t ~version ~addr = fill_above t (Array.length t.levels) ~version ~addr

(* The first level whose cache holds [addr] at [version] (the depth when
   none does), refreshing LRU state down to it. *)
let first_hit t ~version ~addr =
  let k = ref 0 in
  while
    !k < Array.length t.levels
    && not (Cache.lookup t.levels.(!k).cache ~version ~addr)
  do
    incr k
  done;
  !k

let retry = -1

(* Demand load: the completion cycle, or [retry] when no MSHR is free. *)
let read t ~now addr =
  let e = find_inflight t addr in
  if e != Mshr.none then begin
    if e.Mshr.prefetch_only then begin
      (* the prefetch launched the line but too late to hide it fully *)
      t.late_prefetch_count <- t.late_prefetch_count + 1;
      e.Mshr.prefetch_only <- false
    end;
    note_read t e;
    e.Mshr.ready
  end
  else begin
    let line = coh_line t addr in
    let c = coherence t line in
    let v = version_of c in
    let n = Array.length t.levels in
    let k = first_hit t ~version:v ~addr in
    for i = 0 to k - 1 do
      t.level_misses.(i) <- t.level_misses.(i) + 1
    done;
    if k < n then begin
      t.level_hits.(k) <- t.level_hits.(k) + 1;
      fill_above t k ~version:v ~addr;
      now + t.levels.(k).lat
    end
    else if any_full t then begin
      t.mshr_full_count <- t.mshr_full_count + 1;
      retry
    end
    else begin
      let home = t.sh.home addr in
      let kind = miss_kind t ~writer:(writer_of c) ~home in
      let ready = Memsys.request t.sh.mem ~proc:t.proc ~home ~kind ~line ~now in
      allocate t addr ~ready ~has_read:true ~has_write:false ~prefetch_only:false;
      fill_all t ~version:v ~addr;
      t.mem_misses <- t.mem_misses + 1;
      t.read_misses <- t.read_misses + 1;
      t.read_miss_lat <- t.read_miss_lat + (ready - now);
      ready
    end
  end

(* Write-buffer drain access (write-allocate): the completion cycle, or
   [retry] when no MSHR is free. *)
let write t ~now addr =
  let line = coh_line t addr in
  let c = coherence t line in
  let v = version_of c and w = writer_of c in
  (* coherence: a write by a new owner invalidates all other copies *)
  let v' = if w <> t.proc && w >= 0 then v + 1 else v in
  let e = find_inflight t addr in
  if e != Mshr.none then begin
    e.Mshr.has_write <- true;
    commit t line ~version:v';
    fill_all t ~version:v' ~addr;
    e.Mshr.ready
  end
  else begin
    let owned = w = t.proc || w < 0 in
    (* every level is probed (so every copy gets its LRU refresh) even
       below the first hit, as the fixed two-level model did *)
    let hit_level = ref (-1) in
    if owned then
      for k = 0 to Array.length t.levels - 1 do
        if Cache.lookup t.levels.(k).cache ~version:v ~addr && !hit_level < 0
        then hit_level := k
      done;
    if !hit_level >= 0 then begin
      commit t line ~version:v';
      fill_all t ~version:v' ~addr;
      now + t.levels.(!hit_level).lat
    end
    else if any_full t then retry
    else begin
      let home = t.sh.home addr in
      let kind = miss_kind t ~writer:w ~home in
      let ready = Memsys.request t.sh.mem ~proc:t.proc ~home ~kind ~line ~now in
      allocate t addr ~ready ~has_read:false ~has_write:true ~prefetch_only:false;
      commit t line ~version:v';
      fill_all t ~version:v' ~addr;
      t.mem_misses <- t.mem_misses + 1;
      ready
    end
  end

(* Non-binding prefetch: fills the caches if it can get an MSHR, is
   dropped when the line is already present/in flight or when no MSHR is
   available (as hardware drops hint prefetches under pressure). *)
let prefetch t ~now addr =
  t.prefetch_count <- t.prefetch_count + 1;
  if find_inflight t addr == Mshr.none then begin
    let line = coh_line t addr in
    let c = coherence t line in
    let v = version_of c in
    let k = first_hit t ~version:v ~addr in
    if k < Array.length t.levels then fill_above t k ~version:v ~addr
    else if not (any_full t) then begin
      let home = t.sh.home addr in
      let kind = miss_kind t ~writer:(writer_of c) ~home in
      let ready = Memsys.request t.sh.mem ~proc:t.proc ~home ~kind ~line ~now in
      allocate t addr ~ready ~has_read:false ~has_write:false ~prefetch_only:true;
      fill_all t ~version:v ~addr;
      t.prefetch_miss_count <- t.prefetch_miss_count + 1
    end
  end

(* ------------------------------------------------------------------ *)

let cleanup t ~now =
  let any = ref false in
  for k = 0 to Array.length t.levels - 1 do
    if Mshr.cleanup t.levels.(k).mshr ~now then any := true
  done;
  !any

let next_completion t =
  Array.fold_left (fun acc lvl -> min acc (Mshr.next_ready lvl.mshr)) max_int
    t.levels

(* Occupancy metrics read the last (memory-side) level: its file tracks
   exactly the memory-bound misses in flight — the paper's Figure 4
   "MSHRs at the L2". *)
let read_occupancy t = Mshr.read_occupancy (bottom t).mshr
let total_occupancy t = Mshr.occupancy (bottom t).mshr

(* (occupancy, capacity) of every level's MSHR file, processor side
   first — the watchdog's state dump *)
let mshr_occupancy_by_level t =
  Array.map (fun lvl -> (Mshr.occupancy lvl.mshr, Mshr.capacity lvl.mshr)) t.levels

(* statistics *)
let mem_misses t = t.mem_misses
let read_misses t = t.read_misses
let read_miss_latency_sum t = float_of_int t.read_miss_lat
let l1_misses t = t.level_misses.(0)
let mshr_full_events t = t.mshr_full_count
let prefetches t = t.prefetch_count
let prefetch_misses t = t.prefetch_miss_count
let late_prefetches t = t.late_prefetch_count

let level_stats t =
  Array.mapi
    (fun i _ ->
      {
        Breakdown.lv_name = Printf.sprintf "L%d" (i + 1);
        lv_hits = t.level_hits.(i);
        lv_misses = t.level_misses.(i);
      })
    t.levels

let level_miss_counts t = t.level_misses

(* Re-apply the per-cycle retry statistics of a no-progress step [times]
   more times (event-mode idle replay): a load rejected on full MSHRs
   walks — and misses — every level again each retry cycle. *)
let replay_retry t ~miss_deltas ~mshr_full ~times =
  for i = 0 to Array.length t.level_misses - 1 do
    t.level_misses.(i) <- t.level_misses.(i) + (miss_deltas.(i) * times)
  done;
  t.mshr_full_count <- t.mshr_full_count + (mshr_full * times)
