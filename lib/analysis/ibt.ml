type reason =
  | Entry
  | Data_scan
  | Code_immediate
  | Jump_table
  | After_call
  | Fixed_target
  | Fixed_fallthrough
  | Computed_target

type config = { pin_after_calls : bool }

let default_config = { pin_after_calls = true }

type t = { table : (int, reason list) Hashtbl.t }

let reason_to_string = function
  | Entry -> "entry"
  | Data_scan -> "data-scan"
  | Code_immediate -> "code-immediate"
  | Jump_table -> "jump-table"
  | After_call -> "after-call"
  | Fixed_target -> "fixed-range-target"
  | Fixed_fallthrough -> "fixed-range-fallthrough"
  | Computed_target -> "computed-target"

let add t addr reason =
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.table addr) in
  if not (List.mem reason existing) then Hashtbl.replace t.table addr (reason :: existing)

let immediate_refs ~lo ~hi insn =
  let open Zvm.Insn in
  let candidates =
    match insn with
    | Movi (_, v) | Pushi v | Leaa (_, v) | Cmpi (_, v) -> [ v ]
    | _ -> []
  in
  List.filter (fun v -> v >= lo && v < hi) candidates

let compute ?(config = default_config) binary (agg : Disasm.Aggregate.t) =
  let text = Zelf.Binary.text binary in
  let lo = text.Zelf.Section.vaddr and hi = Zelf.Section.vend text in
  let t = { table = Hashtbl.create 64 } in
  add t binary.Zelf.Binary.entry Entry;
  (* Address constants in data sections. *)
  List.iter (fun a -> add t a Data_scan) (Disasm.Recursive.scan_for_text_addresses binary);
  (* Jump-table entries (also covers PC-relative tables living in text,
     which the data scan does not see). *)
  let tables = Jumptable.find binary agg in
  List.iter (fun a -> add t a Jump_table) (Jumptable.all_entries tables);
  (* Computed-jump targets the inference pass resolved by constant
     folding: the run-time computation produces these original
     addresses, so they are indirect branch targets the scans above
     cannot see (masked pointers).  Empty unless [--infer] ran. *)
  List.iter (fun a -> add t a Computed_target) agg.Disasm.Aggregate.pin_hints;
  (* Immediates and after-call sites in decoded code; branch targets of
     fixed ranges. *)
  let ambiguous = Zipr_util.Interval_set.of_ranges (Disasm.Aggregate.ambiguous_ranges agg) in
  let in_ambiguous addr = Zipr_util.Interval_set.mem ambiguous addr in
  (* By ascending address, so each pin's reason list is a function of the
     aggregate alone. *)
  Disasm.Aggregate.iter_boundaries
    (fun addr insn len ->
      List.iter (fun a -> add t a Code_immediate) (immediate_refs ~lo ~hi insn);
      (match insn with
      | Zvm.Insn.Call _ | Zvm.Insn.Callr _ when config.pin_after_calls ->
          if addr + len < hi then add t (addr + len) After_call
      | _ -> ());
      if in_ambiguous addr then begin
        (* The fixed range keeps its original branch bytes: their targets
           must remain valid at original addresses. *)
        (match Zvm.Insn.static_target ~at:addr insn with
        | Some tgt when tgt >= lo && tgt < hi && not (in_ambiguous tgt) -> add t tgt Fixed_target
        | _ -> ());
        (* Fallthrough escaping the range's end. *)
        if Zvm.Insn.has_fallthrough insn && (not (in_ambiguous (addr + len))) && addr + len < hi
        then add t (addr + len) Fixed_fallthrough
      end)
    agg;
  t

let pins t =
  Hashtbl.fold (fun addr reasons acc -> (addr, List.rev reasons) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Inverse of [pins] (which reverses the per-address reason lists), so
   [of_pins (pins t)] round-trips exactly. *)
let of_pins entries =
  let t = { table = Hashtbl.create (max 64 (List.length entries)) } in
  List.iter (fun (addr, reasons) -> Hashtbl.replace t.table addr (List.rev reasons)) entries;
  t

let addresses t = List.map fst (pins t)

let is_pinned t addr = Hashtbl.mem t.table addr

let count t = Hashtbl.length t.table
