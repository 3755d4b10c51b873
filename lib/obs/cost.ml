(** One attributable cost record, shared by the per-PC ({!Attr}) and
    per-context ({!Flame}) views: the machine charges it, field by field,
    with the counter differences across one instruction. *)

type t = {
  mutable instrs : int;
  mutable uops : int;
  mutable data_stalls : int;
  mutable tag_stalls : int;
  mutable bb_stalls : int;
  mutable check_uops : int;
  mutable metadata_uops : int;
  mutable checked_derefs : int;
  mutable setbounds : int;
  mutable tlb_misses : int;
  mutable l1_misses : int;
  mutable l2_misses : int;
}

let create () =
  {
    instrs = 0;
    uops = 0;
    data_stalls = 0;
    tag_stalls = 0;
    bb_stalls = 0;
    check_uops = 0;
    metadata_uops = 0;
    checked_derefs = 0;
    setbounds = 0;
    tlb_misses = 0;
    l1_misses = 0;
    l2_misses = 0;
  }

let cycles c = c.uops + c.data_stalls + c.tag_stalls + c.bb_stalls

let add_diff c ~before:b ~after:a =
  c.instrs <- c.instrs + (a.instrs - b.instrs);
  c.uops <- c.uops + (a.uops - b.uops);
  c.data_stalls <- c.data_stalls + (a.data_stalls - b.data_stalls);
  c.tag_stalls <- c.tag_stalls + (a.tag_stalls - b.tag_stalls);
  c.bb_stalls <- c.bb_stalls + (a.bb_stalls - b.bb_stalls);
  c.check_uops <- c.check_uops + (a.check_uops - b.check_uops);
  c.metadata_uops <- c.metadata_uops + (a.metadata_uops - b.metadata_uops);
  c.checked_derefs <- c.checked_derefs + (a.checked_derefs - b.checked_derefs);
  c.setbounds <- c.setbounds + (a.setbounds - b.setbounds);
  c.tlb_misses <- c.tlb_misses + (a.tlb_misses - b.tlb_misses);
  c.l1_misses <- c.l1_misses + (a.l1_misses - b.l1_misses);
  c.l2_misses <- c.l2_misses + (a.l2_misses - b.l2_misses)

let sum cs =
  let acc = create () and zero = create () in
  List.iter (fun c -> add_diff acc ~before:zero ~after:c) cs;
  acc

let totals c =
  [
    ("instructions", c.instrs);
    ("uops", c.uops);
    ("cycles", cycles c);
    ("charged_data_stalls", c.data_stalls);
    ("charged_tag_stalls", c.tag_stalls);
    ("charged_bb_stalls", c.bb_stalls);
    ("check_uops", c.check_uops);
    ("metadata_uops", c.metadata_uops);
    ("checked_derefs", c.checked_derefs);
    ("setbound_instrs", c.setbounds);
  ]

let check ~label c ~expect =
  let bad =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k expect with
        | Some e when e <> v ->
          Some (Printf.sprintf "%s: attributed %d <> global %d" k v e)
        | _ -> None)
      (totals c)
  in
  match bad with
  | [] -> Ok ()
  | msgs -> Error (label ^ ": " ^ String.concat "; " msgs)
