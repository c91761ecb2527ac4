(* Provenance recorded with every result: host shape, toolchain and
   revision. Everything here degrades to "unknown" rather than failing,
   because a checkout need not be a git repository. *)

let command_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l when l <> "" -> Some l
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

(* Read to end of file: /proc files report a length of 0. *)
let read_file path =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (In_channel.input_all ic))
  with Sys_error _ -> None

let nproc () =
  match Option.bind (command_line "nproc 2>/dev/null") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> Domain.recommended_domain_count ()

let cache_bytes level =
  match Option.bind (command_line (Printf.sprintf "getconf LEVEL%d_CACHE_SIZE 2>/dev/null" level)) int_of_string_opt with
  | Some n when n > 0 -> Some n
  | _ -> None

(* The revision from the checkout's own .git directory, when it has one. *)
let git_revision () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = String.trim head in
      let prefix = "ref: " in
      let pl = String.length prefix in
      if String.length head > pl && String.sub head 0 pl = prefix then
        let r = String.sub head pl (String.length head - pl) in
        match read_file (Filename.concat ".git" r) with
        | Some h -> String.sub (String.trim h) 0 (min 12 (String.length (String.trim h)))
        | None -> "unknown"
      else String.sub head 0 (min 12 (String.length head)))

(* Peak resident set of this process in MB (VmHWM), or the GC's peak
   major heap when /proc is unavailable. *)
let rss_peak_mb () =
  let from_proc =
    match read_file "/proc/self/status" with
    | None -> None
    | Some s ->
        List.find_map
          (fun line ->
            match String.split_on_char ':' line with
            | [ "VmHWM"; v ] -> (
                match String.split_on_char ' ' (String.trim v) with
                | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.0) (int_of_string_opt kb)
                | [] -> None)
            | _ -> None)
          (String.split_on_char '\n' s)
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let mib = function Some b -> Printf.sprintf "%.1f MiB" (float_of_int b /. 1048576.0) | None -> "unknown"

let line ~workload ~seed ~seconds ~trace =
  Printf.sprintf
    "# provenance: workload=%s seed=%d seconds=%d trace=%d nproc=%d recommended_domains=%d ocaml=%s revision=%s l2=%s llc=%s"
    workload seed seconds trace (nproc ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_revision ()) (mib (cache_bytes 2)) (mib (cache_bytes 3))
