(* On-disk checkpointing of completed experiment artifacts, so an
   interrupted repro run resumes instead of recomputing. One file per
   artifact id and run settings; writes go through a temp file + rename
   so a crash mid-write never leaves a truncated artifact behind. *)

type t = { dir : string; suffix : string }

let id_ok id =
  String.length id > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_')
       id

let check_id id =
  if not (id_ok id) then
    Memclust_util.Error.raise_err
      (Memclust_util.Error.Config_invalid
         {
           config = id;
           reason = "checkpoint ids must be alphanumeric (plus - and _)";
         })

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end
  else if not (Sys.is_directory dir) then
    Memclust_util.Error.raise_err
      (Memclust_util.Error.Config_invalid
         { config = dir; reason = "checkpoint path exists but is not a directory" })

let create ?(settings = Settings.default) dir =
  mkdir_p dir;
  { dir; suffix = "." ^ Settings.digest settings ^ ".txt" }

let path t id = Filename.concat t.dir (id ^ t.suffix)

let mem t id =
  check_id id;
  Sys.file_exists (path t id)

let load t id =
  check_id id;
  let p = path t id in
  if Sys.file_exists p then
    Some (In_channel.with_open_bin p In_channel.input_all)
  else None

let save t id text =
  check_id id;
  let final = path t id in
  let tmp = final ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc text);
  Sys.rename tmp final

let saved t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:t.suffix f)
  |> List.sort String.compare
