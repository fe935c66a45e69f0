module Insn = Zvm.Insn

let label_of addr = Printf.sprintf "L%x" addr

(* Render one instruction, naming branch targets with labels the parser
   resolves. *)
let render_insn ~at ~target_label insn =
  let open Insn in
  match insn with
  | Jmp (w, _) -> (
      let suffix = match w with Short -> ".s" | Near -> ".n" in
      match static_target ~at insn with
      | Some t -> Printf.sprintf "jmp%s %s" suffix (target_label t)
      | None -> "jmp 0")
  | Jcc (c, w, _) -> (
      let suffix = match w with Short -> ".s" | Near -> ".n" in
      match static_target ~at insn with
      | Some t -> Printf.sprintf "j%s%s %s" (Zvm.Cond.to_string c) suffix (target_label t)
      | None -> "jeq 0")
  | Call _ -> (
      match static_target ~at insn with
      | Some t -> Printf.sprintf "call %s" (target_label t)
      | None -> "call 0")
  | Movi (r, v) -> Printf.sprintf "movi %s, %d" (Zvm.Reg.to_string r) v
  | Cmpi (r, v) -> Printf.sprintf "cmpi %s, %d" (Zvm.Reg.to_string r) v
  | Pushi v -> Printf.sprintf "pushi %d" v
  | Alui (op, r, v) ->
      let name =
        match op with
        | Addi -> "addi"
        | Subi -> "subi"
        | Andi -> "andi"
        | Ori -> "ori"
        | Xori -> "xori"
        | Muli -> "muli"
      in
      Printf.sprintf "%s %s, %d" name (Zvm.Reg.to_string r) v
  | Load { dst; base; disp } ->
      Printf.sprintf "load %s, [%s%+d]" (Zvm.Reg.to_string dst) (Zvm.Reg.to_string base) disp
  | Store { base; disp; src } ->
      Printf.sprintf "store [%s%+d], %s" (Zvm.Reg.to_string base) disp (Zvm.Reg.to_string src)
  | Load8 { dst; base; disp } ->
      Printf.sprintf "load8 %s, [%s%+d]" (Zvm.Reg.to_string dst) (Zvm.Reg.to_string base) disp
  | Store8 { base; disp; src } ->
      Printf.sprintf "store8 [%s%+d], %s" (Zvm.Reg.to_string base) disp (Zvm.Reg.to_string src)
  | Jmpt (r, table) -> Printf.sprintf "jmpt %s, %d" (Zvm.Reg.to_string r) table
  | Leaa (r, a) -> Printf.sprintf "leaa %s, %d" (Zvm.Reg.to_string r) a
  | Loada (r, a) -> Printf.sprintf "loada %s, %d" (Zvm.Reg.to_string r) a
  | Storea (a, r) -> Printf.sprintf "storea %d, %s" a (Zvm.Reg.to_string r)
  | Leap (r, d) -> Printf.sprintf "leap %s, %s" (Zvm.Reg.to_string r) (label_of (at + size insn + d))
  | Loadp (r, d) -> Printf.sprintf "loadp %s, %s" (Zvm.Reg.to_string r) (label_of (at + size insn + d))
  | Storep (d, r) -> Printf.sprintf "storep %s, %s" (label_of (at + size insn + d)) (Zvm.Reg.to_string r)
  | other -> Insn.to_string other

let section_listing binary =
  let agg = Disasm.Aggregate.run binary in
  let boundary = Disasm.Aggregate.boundary agg in
  let text = Zelf.Binary.text binary in
  let base = text.Zelf.Section.vaddr in
  let vend = Zelf.Section.vend text in
  (* Label every referenced address, including PC-relative data refs so
     the listing reparses without arithmetic. *)
  let labelled = Hashtbl.create 64 in
  Hashtbl.replace labelled binary.Zelf.Binary.entry ();
  Disasm.Aggregate.iter_boundaries
    (fun addr insn len ->
      (match Insn.static_target ~at:addr insn with
      | Some t -> Hashtbl.replace labelled t ()
      | None -> ());
      match insn with
      | Insn.Leap (_, d) | Insn.Loadp (_, d) | Insn.Storep (d, _) ->
          Hashtbl.replace labelled (addr + len + d) ()
      | _ -> ())
    agg;
  (* Pass 1: find the addresses the emission walk actually lands on —
     only those can carry a label line.  Branch targets inside an
     overlapped decode stay absolute. *)
  let line_starts = Hashtbl.create 256 in
  let addr = ref base in
  while !addr < vend do
    Hashtbl.replace line_starts !addr ();
    match boundary !addr with
    | Some (_, len) -> addr := !addr + len
    | None -> incr addr
  done;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf ".section text %d\n" base);
  let target_label t =
    if Hashtbl.mem labelled t && Hashtbl.mem line_starts t then label_of t
    else string_of_int t
  in
  (* Pass 2: emit. *)
  let addr = ref base in
  while !addr < vend do
    if Hashtbl.mem labelled !addr then Buffer.add_string buf (label_of !addr ^ ":\n");
    match boundary !addr with
    | Some (insn, len) ->
        Buffer.add_string buf
          (Printf.sprintf "    %s\n" (render_insn ~at:!addr ~target_label insn));
        addr := !addr + len
    | None ->
        (* Data byte (or a byte inside an overlapped decode): emit raw. *)
        (match Zelf.Binary.read8 binary !addr with
        | Some byte -> Buffer.add_string buf (Printf.sprintf "    .byte %d\n" byte)
        | None -> ());
        incr addr
  done;
  Buffer.contents buf

let program_listing binary =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Printf.sprintf ".entry %s\n" (label_of binary.Zelf.Binary.entry));
  Buffer.add_string buf (section_listing binary);
  List.iter
    (fun (s : Zelf.Section.t) ->
      match s.Zelf.Section.kind with
      | Zelf.Section.Text -> ()
      | Zelf.Section.Bss ->
          Buffer.add_string buf (Printf.sprintf ".section bss %d\n" s.Zelf.Section.vaddr);
          Buffer.add_string buf (Printf.sprintf "    .space %d\n" s.Zelf.Section.size)
      | kind ->
          Buffer.add_string buf
            (Printf.sprintf ".section %s %d\n" (Zelf.Section.kind_to_string kind)
               s.Zelf.Section.vaddr);
          Bytes.iter
            (fun c -> Buffer.add_string buf (Printf.sprintf "    .byte %d\n" (Char.code c)))
            s.Zelf.Section.data)
    binary.Zelf.Binary.sections;
  Buffer.contents buf
