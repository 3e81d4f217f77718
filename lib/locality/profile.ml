open Memclust_ir

type t = { acc : int array; mis : int array }

let recorder ?(cache_bytes = 64 * 1024) ?(assoc = 4) ?(line_size = 64) p =
  let n = Program.max_ref_id p + 1 in
  let t = { acc = Array.make n 0; mis = Array.make n 0 } in
  (* one coherence version: a plain LRU cache *)
  let c = Memclust_util.Cache.create ~bytes:cache_bytes ~assoc ~line:line_size in
  let note ref_id addr =
    let miss = not (Memclust_util.Cache.lookup c ~version:0 ~addr) in
    if miss then Memclust_util.Cache.fill c ~version:0 ~addr;
    if ref_id > 0 && ref_id < n then begin
      t.acc.(ref_id) <- t.acc.(ref_id) + 1;
      if miss then t.mis.(ref_id) <- t.mis.(ref_id) + 1
    end
  in
  let emit =
    {
      Exec.null_emitter with
      e_load = (fun ~ref_id ~addr _ _ -> note ref_id addr; -1);
      e_store = (fun ~ref_id ~addr _ _ -> note ref_id addr; -1);
    }
  in
  (t, emit)

let run ?cache_bytes ?assoc ?line_size p data =
  let t, emit = recorder ?cache_bytes ?assoc ?line_size p in
  Exec.run ~emit p (Data.copy data);
  t

let accesses t id = if id >= 0 && id < Array.length t.acc then t.acc.(id) else 0
let misses t id = if id >= 0 && id < Array.length t.mis then t.mis.(id) else 0

let miss_rate t id =
  let a = accesses t id in
  if a = 0 then 1.0 else float_of_int (misses t id) /. float_of_int a
