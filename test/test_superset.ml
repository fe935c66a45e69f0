(* Tests for superset (speculative) disassembly and N-way aggregation. *)

module Insn = Zvm.Insn
module Reg = Zvm.Reg

let binary_of_text ?(entry = 0x1000) code =
  Zelf.Binary.create ~entry
    [ Zelf.Section.make ~name:".text" ~kind:Zelf.Section.Text ~vaddr:0x1000 code ]

let test_prune_kills_flow_into_garbage () =
  (* movi (6 bytes) then an undecodable byte: a candidate decoded at any
     offset that falls through into the bad byte must die; the movi
     itself, falling through into the bad byte, dies too. *)
  let buf = Buffer.create 8 in
  Buffer.add_bytes buf (Zvm.Encode.to_bytes (Insn.Movi (Reg.R0, 0x11111111)));
  Buffer.add_char buf '\x05';  (* not an opcode *)
  let binary = binary_of_text (Buffer.to_bytes buf) in
  let alive = Disasm.Superset.prune_fixpoint binary in
  Alcotest.(check bool) "movi flowing into garbage dies" false alive.(0);
  Alcotest.(check bool) "garbage byte has no candidate" false alive.(6)

let test_prune_keeps_terminated_chains () =
  let code = Zvm.Encode.encode_all Insn.[ Movi (Reg.R0, 1); Ret ] in
  let binary = binary_of_text code in
  let alive = Disasm.Superset.prune_fixpoint binary in
  Alcotest.(check bool) "movi alive" true alive.(0);
  Alcotest.(check bool) "ret alive" true alive.(6)

let test_superset_abstains_on_recursive_territory () =
  let code = Zvm.Encode.encode_all Insn.[ Movi (Reg.R0, 1); Ret ] in
  let binary = binary_of_text code in
  let rec_ = Disasm.Recursive.traverse binary in
  let src = Disasm.Superset.run binary ~avoid:rec_ in
  (* Recursive reaches everything here, so superset must claim nothing. *)
  Array.iter
    (fun c -> Alcotest.(check bool) "abstains" true (c = Disasm.Claim.unknown))
    src.Disasm.Source.claims

let test_superset_tiles_unreachable_code () =
  (* Code after a halt: recursive never reaches it; superset should
     produce clean boundaries for it. *)
  let code =
    Zvm.Encode.encode_all Insn.[ Halt; Movi (Reg.R7, 42); Alui (Addi, Reg.R7, 1); Ret ]
  in
  let binary = binary_of_text code in
  let rec_ = Disasm.Recursive.traverse binary in
  let src = Disasm.Superset.run binary ~avoid:rec_ in
  (* The movi at offset 1 must be claimed with the right boundary. *)
  (match src.Disasm.Source.claims.(1) with
  | start when start >= 0 -> Alcotest.(check int) "boundary" 0x1001 start
  | _ -> Alcotest.fail "dead code not tiled");
  Alcotest.(check bool) "boundary recorded" true (src.Disasm.Source.claims.(0x1001 - 0x1000) = 0x1001)

let test_three_way_run_equivalent_verdicts () =
  (* Adding the superset source must not change byte verdicts relative to
     the classic two-way aggregation (it abstains from contested calls). *)
  let binary, _ = Testprogs.assemble (Testprogs.dispatch_program ()) in
  let lin = Disasm.Linear.sweep binary in
  let rec_ = Disasm.Recursive.traverse binary in
  let two =
    Disasm.Aggregate.combine_sources binary
      [ Disasm.Source.of_linear lin; Disasm.Source.of_recursive rec_ ]
  in
  let three = Disasm.Aggregate.run binary in
  Alcotest.(check bool) "same verdicts" true
    (two.Disasm.Aggregate.verdicts = three.Disasm.Aggregate.verdicts)

let test_combine_sources_requires_high_confidence () =
  (* A lone low-confidence code claim must be ambiguous, not code. *)
  let code = Zvm.Encode.encode_all Insn.[ Nop; Ret ] in
  let binary = binary_of_text code in
  let lin = Disasm.Linear.sweep binary in
  let agg = Disasm.Aggregate.combine_sources binary [ Disasm.Source.of_linear lin ] in
  let _, _, amb = Disasm.Aggregate.stats agg in
  Alcotest.(check int) "all ambiguous" 2 amb

let test_combine_sources_mismatch_rejected () =
  let b1 = binary_of_text (Zvm.Encode.encode_all [ Insn.Ret ]) in
  let b2 = binary_of_text (Zvm.Encode.encode_all Insn.[ Nop; Ret ]) in
  let s1 = Disasm.Source.of_linear (Disasm.Linear.sweep b1) in
  let s2 = Disasm.Source.of_linear (Disasm.Linear.sweep b2) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Disasm.Aggregate.combine_sources b1 [ s1; s2 ]);
       false
     with Invalid_argument _ -> true)

let test_superset_improves_fixed_region_boundaries () =
  (* The island program's hidden code is recursive-unreachable; with the
     superset source in play the aggregate still classifies it ambiguous
     (conservative), and boundaries exist for its instructions. *)
  let binary, symbols = Testprogs.island_binary () in
  let agg = Disasm.Aggregate.run binary in
  let hidden = List.assoc "hidden" symbols in
  (match Disasm.Aggregate.verdict_at agg hidden with
  | Some Disasm.Aggregate.Ambiguous -> ()
  | v ->
      Alcotest.failf "hidden code verdict: %s"
        (match v with
        | Some x -> Format.asprintf "%a" Disasm.Aggregate.pp_verdict x
        | None -> "none"));
  Alcotest.(check bool) "hidden boundary known" true
    (Disasm.Aggregate.boundary agg hidden <> None)

let suite =
  [
    Alcotest.test_case "prune kills bad flow" `Quick test_prune_kills_flow_into_garbage;
    Alcotest.test_case "prune keeps chains" `Quick test_prune_keeps_terminated_chains;
    Alcotest.test_case "abstains where recursive reaches" `Quick
      test_superset_abstains_on_recursive_territory;
    Alcotest.test_case "tiles unreachable code" `Quick test_superset_tiles_unreachable_code;
    Alcotest.test_case "three-way verdicts stable" `Quick test_three_way_run_equivalent_verdicts;
    Alcotest.test_case "low confidence insufficient" `Quick
      test_combine_sources_requires_high_confidence;
    Alcotest.test_case "mismatched sources rejected" `Quick test_combine_sources_mismatch_rejected;
    Alcotest.test_case "fixed-region boundaries" `Quick test_superset_improves_fixed_region_boundaries;
  ]
