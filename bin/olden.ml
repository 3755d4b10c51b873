(* Run a named Olden benchmark under a chosen protection scheme and print
   its output plus the measurement record the figures are built from: the
   data/tag/base-bound stall split and the data/tag/shadow page counts.

     dune exec bin/olden.exe -- list
     dune exec bin/olden.exe -- treeadd
     dune exec bin/olden.exe -- em3d --mode softfat
     dune exec bin/olden.exe -- bh --scheme intern-11

   Campaigns, recovery policies and observability run through
   [hardbound_run --workload NAME]. *)

module Codegen = Hb_minic.Codegen
module Encoding = Hardbound.Encoding
module Run = Hb_harness.Run
module Workloads = Hb_workloads.Workloads

let usage () =
  prerr_endline
    "usage: olden <name|list> [--mode MODE] [--scheme ENC]\n\
     modes: nochecks hardbound malloc-only softfat objtable\n\
     encodings: uncompressed extern-4 intern-4 intern-11\n\
     campaigns, recovery policies and observability: hardbound_run \
     --workload NAME (olden --seed S is --inject all:0:S)";
  exit 1

let rec parse name mode scheme = function
  | [] -> (name, mode, scheme)
  | "--mode" :: m :: rest -> (
    match Codegen.mode_of_name m with
    | Some mode -> parse name mode scheme rest
    | None -> usage ())
  | "--scheme" :: s :: rest -> (
    match Encoding.scheme_of_name s with
    | Some scheme -> parse name mode scheme rest
    | None -> usage ())
  | n :: rest when name = None && not (String.starts_with ~prefix:"-" n) ->
    parse (Some n) mode scheme rest
  | _ -> usage ()

let () =
  match
    parse None Codegen.Hardbound Encoding.Extern4
      (List.tl (Array.to_list Sys.argv))
  with
  | None, _, _ -> usage ()
  | Some "list", _, _ ->
    List.iter
      (fun (w : Workloads.t) -> Printf.printf "%-10s %s\n" w.name w.description)
      Workloads.all
  | Some n, mode, scheme -> (
    match Run.measure ~scheme ~mode (Workloads.find n) with
    | r ->
      print_string r.Run.output;
      Printf.printf
        "\nmode=%s encoding=%s\ninstructions  %d\nuops          %d\n\
         cycles        %d\nsetbounds     %d\nmetadata uops %d\n\
         stalls        data %d / tag %d / base-bound %d\n\
         pages         data %d / tag %d / shadow %d\n"
        (Codegen.mode_name mode) (Encoding.scheme_name scheme)
        r.Run.instructions r.Run.uops r.Run.cycles r.Run.setbound_instrs
        r.Run.metadata_uops r.Run.data_stalls r.Run.tag_stalls r.Run.bb_stalls
        r.Run.data_pages r.Run.tag_pages r.Run.shadow_pages
    | exception Hb_error.Hb_error (ctx, msg) ->
      Printf.eprintf "error: %s\n" (Hb_error.to_string (ctx, msg));
      exit 1)
