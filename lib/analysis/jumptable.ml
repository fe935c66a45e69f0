type table = { dispatch_at : int; table_addr : int; entries : int list }

let scan_entries binary ~lo ~hi table_addr =
  let rec go i acc =
    if i >= 1024 then List.rev acc
    else
      match Zelf.Binary.read32 binary (table_addr + (i * 4)) with
      | Some v when v >= lo && v < hi -> go (i + 1) (v :: acc)
      | _ -> List.rev acc
  in
  go 0 []

let find binary (agg : Disasm.Aggregate.t) =
  let text = Zelf.Binary.text binary in
  let lo = text.Zelf.Section.vaddr and hi = Zelf.Section.vend text in
  let tables = ref [] in
  Disasm.Aggregate.iter_boundaries
    (fun addr insn _ ->
      match insn with
      | Zvm.Insn.Jmpt (_, table_addr) ->
          tables :=
            { dispatch_at = addr; table_addr; entries = scan_entries binary ~lo ~hi table_addr }
            :: !tables
      | _ -> ())
    agg;
  List.rev !tables

let all_entries tables =
  List.concat_map (fun t -> t.entries) tables |> List.sort_uniq compare
