(* Tests for the disassemblers and the conservative aggregation. *)

module Insn = Zvm.Insn
module Reg = Zvm.Reg

let binary_of_text ?(extra = []) ?(entry = 0x1000) code =
  Zelf.Binary.create ~entry
    (Zelf.Section.make ~name:".text" ~kind:Zelf.Section.Text ~vaddr:0x1000 code :: extra)

let test_linear_covers_clean_code () =
  let code = Zvm.Encode.encode_all Insn.[ Movi (Reg.R0, 1); Nop; Ret ] in
  let cover = (Disasm.Linear.sweep (binary_of_text code)).Disasm.Linear.cover in
  Alcotest.(check int) "first insn" 0x1000 cover.(0);
  Alcotest.(check int) "mid insn covered" 0x1000 cover.(3);
  Alcotest.(check int) "nop" 0x1006 cover.(6);
  Alcotest.(check bool) "no data" false (Array.mem Disasm.Claim.data cover)

let test_linear_resyncs_on_bad_byte () =
  (* 0x00 is not an opcode: linear marks it data and resumes next byte. *)
  let buf = Buffer.create 16 in
  Buffer.add_bytes buf (Zvm.Encode.to_bytes Insn.Nop);
  Buffer.add_char buf '\x00';
  Buffer.add_bytes buf (Zvm.Encode.to_bytes Insn.Ret);
  let cover = (Disasm.Linear.sweep (binary_of_text (Buffer.to_bytes buf))).Disasm.Linear.cover in
  Alcotest.(check int) "bad byte is data" Disasm.Claim.data cover.(1);
  Alcotest.(check int) "resynced" 0x1002 cover.(2)

let test_recursive_stops_at_flow_end () =
  (* ret; then unreferenced junk that decodes fine. *)
  let code = Zvm.Encode.encode_all Insn.[ Ret; Movi (Reg.R7, 0xbad); Halt ] in
  let rec_ = Disasm.Recursive.traverse (binary_of_text code) in
  Alcotest.(check bool) "entry reached" true (Disasm.Recursive.reached rec_ 0x1000);
  Alcotest.(check bool) "dead not reached" false (Disasm.Recursive.reached rec_ 0x1001)

let test_recursive_follows_calls_and_branches () =
  let b = Zasm.Builder.create ~entry:"main" () in
  Zasm.Builder.label b "main";
  Zasm.Builder.call b "f";
  Zasm.Builder.jmp b "end";
  Zasm.Builder.label b "f";
  Zasm.Builder.insn b (Insn.Ret);
  Zasm.Builder.label b "end";
  Zasm.Builder.insn b (Insn.Halt);
  let binary, symbols = Zasm.Builder.assemble_exn b in
  let rec_ = Disasm.Recursive.traverse binary in
  List.iter
    (fun l ->
      Alcotest.(check bool) (l ^ " reached") true
        (Disasm.Recursive.reached rec_ (List.assoc l symbols)))
    [ "main"; "f"; "end" ]

let test_recursive_seeds_from_data_scan () =
  (* A function referenced only from a rodata pointer table. *)
  let b = Zasm.Builder.create ~entry:"main" () in
  Zasm.Builder.rodata_label b "tbl";
  Zasm.Builder.rodata_word b (Zasm.Ast.Lab "only_via_table");
  Zasm.Builder.label b "main";
  Zasm.Builder.insn b Insn.Halt;
  Zasm.Builder.label b "only_via_table";
  Zasm.Builder.insn b (Insn.Movi (Reg.R0, 3));
  Zasm.Builder.insn b (Insn.Ret);
  let binary, symbols = Zasm.Builder.assemble_exn b in
  let rec_ = Disasm.Recursive.traverse binary in
  Alcotest.(check bool) "table target reached" true
    (Disasm.Recursive.reached rec_ (List.assoc "only_via_table" symbols))

let test_scan_for_text_addresses () =
  let b = Zasm.Builder.create ~entry:"main" () in
  Zasm.Builder.rodata_label b "tbl";
  Zasm.Builder.rodata_word b (Zasm.Ast.Lab "main");
  Zasm.Builder.rodata_word b (Zasm.Ast.Abs 0xdeadbeef);
  Zasm.Builder.label b "main";
  Zasm.Builder.insn b Insn.Halt;
  let binary, symbols = Zasm.Builder.assemble_exn b in
  let hits = Disasm.Recursive.scan_for_text_addresses binary in
  Alcotest.(check bool) "finds main" true (List.mem (List.assoc "main" symbols) hits);
  Alcotest.(check bool) "ignores non-text" true (not (List.mem 0xdeadbeef hits))

let test_aggregate_case1_code () =
  let code = Zvm.Encode.encode_all Insn.[ Movi (Reg.R0, 1); Halt ] in
  let agg = Disasm.Aggregate.run (binary_of_text code) in
  Alcotest.(check (option Alcotest.string)) "all code" (Some "code")
    (Option.map
       (Format.asprintf "%a" Disasm.Aggregate.pp_verdict)
       (Disasm.Aggregate.verdict_at agg 0x1000));
  let codeb, datab, ambb = Disasm.Aggregate.stats agg in
  Alcotest.(check int) "code bytes" (Bytes.length code) codeb;
  Alcotest.(check int) "no data" 0 datab;
  Alcotest.(check int) "no ambiguity" 0 ambb

let test_aggregate_undecodable_is_data () =
  let buf = Buffer.create 8 in
  Buffer.add_bytes buf (Zvm.Encode.to_bytes Insn.Halt);
  Buffer.add_string buf "\x00\x01\x02";
  let agg = Disasm.Aggregate.run (binary_of_text (Buffer.to_bytes buf)) in
  Alcotest.(check (option Alcotest.string)) "junk is data" (Some "data")
    (Option.map
       (Format.asprintf "%a" Disasm.Aggregate.pp_verdict)
       (Disasm.Aggregate.verdict_at agg 0x1001))

let test_aggregate_linear_only_is_ambiguous () =
  (* Code after a halt: decodes under linear sweep, unreached by recursive
     traversal — paper case 4, conservatively ambiguous. *)
  let code = Zvm.Encode.encode_all Insn.[ Halt; Movi (Reg.R7, 1); Ret ] in
  let agg = Disasm.Aggregate.run (binary_of_text code) in
  Alcotest.(check (option Alcotest.string)) "dead code ambiguous" (Some "ambiguous")
    (Option.map
       (Format.asprintf "%a" Disasm.Aggregate.pp_verdict)
       (Disasm.Aggregate.verdict_at agg 0x1001));
  Alcotest.(check bool) "range extracted" true (Disasm.Aggregate.ambiguous_ranges agg <> [])

let test_aggregate_boundary_disagreement () =
  (* Force a misaligned decode: entry jumps into the middle of what linear
     sweep reads from the start.  Construct bytes so linear decodes a
     6-byte movi at 0x1000 while the program entry (0x1002) decodes
     something else inside it. *)
  let buf = Buffer.create 16 in
  (* movi r0, imm where imm bytes themselves decode as instructions *)
  Buffer.add_bytes buf (Zvm.Encode.to_bytes (Insn.Movi (Reg.R0, 0x90909090)));
  Buffer.add_bytes buf (Zvm.Encode.to_bytes Insn.Halt);
  let binary = binary_of_text ~entry:0x1002 (Buffer.to_bytes buf) in
  let agg = Disasm.Aggregate.run binary in
  (* The overlap region must not be called conclusive code for both. *)
  let _, _, ambb = Disasm.Aggregate.stats agg in
  Alcotest.(check bool) "some ambiguity" true (ambb > 0);
  Alcotest.(check bool) "warning recorded" true (agg.Disasm.Aggregate.warnings <> [])

let test_aggregate_code_starts_sorted () =
  let code = Zvm.Encode.encode_all Insn.[ Nop; Nop; Halt ] in
  let agg = Disasm.Aggregate.run (binary_of_text code) in
  let starts = Disasm.Aggregate.code_starts agg in
  Alcotest.(check (list int)) "starts" [ 0x1000; 0x1001; 0x1002 ] starts

(* -- the shared decode table -- *)

module Decoded = Disasm.Decoded
module Adv = Workloads.Adversarial

(* The decode every source ran before the table existed: through the
   section map, then "spills past the text end => no candidate". *)
let old_decode binary off =
  let text = Zelf.Binary.text binary in
  let base = text.Zelf.Section.vaddr and len = text.Zelf.Section.size in
  match Zvm.Decode.decode ~fetch:(Zelf.Binary.read8 binary) (base + off) with
  | Ok (insn, ilen) when off + ilen <= len -> Some (insn, ilen)
  | Ok _ | Error _ -> None

let table_matches_old_decode binary =
  let d = Decoded.create binary in
  let ok = ref true in
  for off = 0 to Decoded.len d - 1 do
    let n = Decoded.length d off in
    let got = if n > 0 then Some (Decoded.insn d off, n) else None in
    if got <> old_decode binary off then ok := false
  done;
  !ok

(* Scale members (any class) and adversarial classes at drawn seeds. *)
let corpus_binary (pick, seed) =
  if pick < 8 then
    (Workloads.Scale.generate_one ~seed:(1 + seed) ((pick * 37) + seed)).Workloads.Scale.binary
  else
    match pick mod 5 with
    | 0 -> (Adv.overlap_trap ~seed ~tests:0 ()).Adv.binary
    | 1 -> (Adv.flattened_dispatch ~seed ~tests:0 ()).Adv.binary
    | 2 -> (Adv.masked_dispatch ~seed ~tests:0 ()).Adv.binary
    | 3 -> (Adv.opaque_dispatch ~seed ~tests:0 ()).Adv.binary
    | _ -> (Adv.dense_islands ~seed ~tests:0 ()).Adv.binary

let gen_corpus_case =
  QCheck.(
    make
      ~print:(fun (p, s) -> Printf.sprintf "pick %d seed %d" p s)
      Gen.(pair (0 -- 12) (0 -- 200)))

let prop_table_matches_old_decode =
  QCheck.Test.make ~count:20 ~name:"decode table equals the read8 decode" gen_corpus_case
    (fun case -> table_matches_old_decode (corpus_binary case))

let test_table_text_then_rodata () =
  (* The last text byte opens a 6-byte movi; rodata directly after the
     text supplies the rest, so the section-map decode succeeds across
     the boundary and only the spill rule rejects it. *)
  let code = Bytes.cat (Zvm.Encode.encode_all Insn.[ Nop; Halt ]) (Bytes.of_string "\x10") in
  let rodata =
    Zelf.Section.make ~name:".rodata" ~kind:Zelf.Section.Rodata
      ~vaddr:(0x1000 + Bytes.length code) (Bytes.of_string "\x00\x01\x02\x03\x04\x05")
  in
  let binary = binary_of_text ~extra:[ rodata ] code in
  let last = Bytes.length code - 1 in
  Alcotest.(check bool) "section-map decode crosses into rodata" true
    (Result.is_ok
       (Zvm.Decode.decode ~fetch:(Zelf.Binary.read8 binary) (0x1000 + last)));
  Alcotest.(check bool) "table agrees everywhere" true (table_matches_old_decode binary);
  Alcotest.(check int) "spilling candidate dropped" 0
    (Decoded.length (Decoded.create binary) last)

let test_table_truncated_last_insn () =
  (* A movi cut off after three of its six bytes at the end of the text. *)
  let code =
    Bytes.cat (Zvm.Encode.encode_all Insn.[ Nop ])
      (Bytes.sub (Zvm.Encode.to_bytes (Insn.Movi (Reg.R1, 7))) 0 3)
  in
  let binary = binary_of_text code in
  Alcotest.(check bool) "table agrees everywhere" true (table_matches_old_decode binary);
  let d = Decoded.create binary in
  Alcotest.(check int) "nop decodes" 1 (Decoded.length d 0);
  Alcotest.(check int) "cut-off movi has no candidate" 0 (Decoded.length d 1)

(* -- aggregation is unchanged by the table and the per-offset sweep -- *)

(* A source's boundaries as (address, length) pairs, read off its cover:
   a boundary's length is the run of bytes claiming its start. *)
let source_boundaries (s : Disasm.Source.t) =
  let base = s.Disasm.Source.base and claims = s.Disasm.Source.claims in
  List.filter_map
    (fun off ->
      if claims.(off) <> base + off then None
      else
        let n = ref 1 in
        while off + !n < s.Disasm.Source.len && claims.(off + !n) = base + off do incr n done;
        Some (base + off, !n))
    (List.init s.Disasm.Source.len Fun.id)

(* Reference: the global-sort overlap accounting the per-offset sweep
   replaced, kept verbatim but for reading boundaries off the covers. *)
let reference_overlap_mismatches (primaries : Disasm.Source.t list) =
  let boundaries =
    List.concat_map
      (fun (s : Disasm.Source.t) ->
        List.map (fun (addr, ilen) -> (addr, ilen, s.Disasm.Source.name)) (source_boundaries s))
      primaries
    |> List.sort compare
  in
  let count = ref 0 and warnings = ref [] in
  let active = ref [] in
  List.iter
    (fun (addr, ilen, name) ->
      active := List.filter (fun (a, l, _) -> a + l > addr) !active;
      List.iter
        (fun (a, l, n) ->
          if l <> ilen && not (a = addr && n = name) then begin
            incr count;
            warnings :=
              Printf.sprintf
                "overlapping instruction claims of different lengths: %s@0x%x+%d vs %s@0x%x+%d"
                n a l name addr ilen
              :: !warnings
          end)
        !active;
      active := (addr, ilen, name) :: !active)
    boundaries;
  (!count, List.rev !warnings)

(* The three primaries (and the refiner) built each with its own table. *)
let untabled_sources ~infer binary =
  let lin = Disasm.Linear.sweep binary in
  let rec_ = Disasm.Recursive.traverse binary in
  let spec = Disasm.Superset.run binary ~avoid:rec_ in
  let primaries = [ Disasm.Source.of_linear lin; spec; Disasm.Source.of_recursive rec_ ] in
  let inf = if infer then Some (Disasm.Infer.run binary ~avoid:rec_) else None in
  (primaries, inf)

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let overlap_matches_reference binary =
  let primaries, _ = untabled_sources ~infer:false binary in
  let count, warnings = reference_overlap_mismatches primaries in
  let agg = Disasm.Aggregate.combine_sources binary primaries in
  let ws = agg.Disasm.Aggregate.warnings in
  agg.Disasm.Aggregate.tally.Disasm.Aggregate.overlap_len_mismatch = count
  && drop (List.length ws - count) ws = warnings

let boundary_list agg =
  let acc = ref [] in
  Disasm.Aggregate.iter_boundaries (fun a insn len -> acc := (a, insn, len) :: !acc) agg;
  List.rev !acc

let run_matches_untabled ~infer binary =
  let primaries, inf = untabled_sources ~infer binary in
  let expect =
    match inf with
    | None -> Disasm.Aggregate.combine_sources binary primaries
    | Some inf ->
        let agg =
          Disasm.Aggregate.combine_sources binary (primaries @ [ inf.Disasm.Infer.source ])
        in
        { agg with Disasm.Aggregate.pin_hints = inf.Disasm.Infer.pin_hints }
  in
  let got = Disasm.Aggregate.run ~infer ~decoded:(Decoded.create binary) binary in
  let open Disasm.Aggregate in
  got.verdicts = expect.verdicts
  && boundary_list got = boundary_list expect
  && got.warnings = expect.warnings && got.tally = expect.tally
  && got.refined = expect.refined && got.pin_hints = expect.pin_hints

let test_overlap_trap_matches_reference () =
  let total =
    List.fold_left
      (fun total seed ->
        let binary = (Adv.overlap_trap ~seed ~tests:0 ()).Adv.binary in
        let primaries, _ = untabled_sources ~infer:false binary in
        let count, _ = reference_overlap_mismatches primaries in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: same count and warnings" seed)
          true (overlap_matches_reference binary);
        total + count)
      0 [ 1201; 1; 2; 3; 7; 42 ]
  in
  Alcotest.(check bool) "the class produces mismatches" true (total > 0)

(* Dense random boundary sets over a short range, from sources that may
   share a name: every overlap shape and ordering tie the sweep must
   reproduce, far denser than real disassemblers produce.  A source's
   boundaries are a cover, so within one source a boundary overlapping an
   earlier one of the list is dropped. *)
let gen_boundary_sets =
  QCheck.(
    make
      ~print:(fun l ->
        String.concat " | "
          (List.map
             (fun (n, bs) ->
               n ^ ":" ^ String.concat "," (List.map (fun (o, l) -> Printf.sprintf "%d+%d" o l) bs))
             l))
      Gen.(
        list_size (1 -- 4)
          (pair (oneofl [ "a"; "b"; "c" ]) (list_size (0 -- 24) (pair (0 -- 40) (1 -- 7))))))

let prop_overlap_random_sources =
  QCheck.Test.make ~count:300 ~name:"overlap sweep equals the global sort on random boundaries"
    gen_boundary_sets (fun sets ->
      let base = 0x1000 and len = 48 in
      let binary = binary_of_text (Bytes.make len '\x00') in
      let primaries =
        List.map
          (fun (name, bs) ->
            let claims = Array.make len Disasm.Claim.unknown in
            List.iter
              (fun (o, l) ->
                if Array.for_all (( = ) Disasm.Claim.unknown) (Array.sub claims o l) then
                  Array.fill claims o l (base + o))
              bs;
            {
              Disasm.Source.name;
              base;
              len;
              claims;
              decoded = Disasm.Decoded.create binary;
              confidence = Disasm.Source.High;
              kind = Disasm.Source.Primary;
              tags = [||];
            })
          sets
      in
      let count, warnings = reference_overlap_mismatches primaries in
      let agg = Disasm.Aggregate.combine_sources binary primaries in
      (* The overlap warnings follow the per-byte verdict warnings the
         claims now also raise. *)
      let ws = agg.Disasm.Aggregate.warnings in
      agg.Disasm.Aggregate.tally.Disasm.Aggregate.overlap_len_mismatch = count
      && drop (List.length ws - count) ws = warnings)

let prop_overlap_matches_reference =
  QCheck.Test.make ~count:16 ~name:"per-offset overlap sweep equals the global sort"
    gen_corpus_case (fun case -> overlap_matches_reference (corpus_binary case))

let prop_run_matches_untabled =
  QCheck.Test.make ~count:10 ~name:"shared-table run equals untabled sources"
    gen_corpus_case (fun case ->
      let binary = corpus_binary case in
      run_matches_untabled ~infer:false binary && run_matches_untabled ~infer:true binary)

let suite =
  [
    Alcotest.test_case "linear covers code" `Quick test_linear_covers_clean_code;
    Alcotest.test_case "linear resync" `Quick test_linear_resyncs_on_bad_byte;
    Alcotest.test_case "recursive stops" `Quick test_recursive_stops_at_flow_end;
    Alcotest.test_case "recursive follows flow" `Quick test_recursive_follows_calls_and_branches;
    Alcotest.test_case "recursive data-scan seeds" `Quick test_recursive_seeds_from_data_scan;
    Alcotest.test_case "text address scan" `Quick test_scan_for_text_addresses;
    Alcotest.test_case "aggregate case 1" `Quick test_aggregate_case1_code;
    Alcotest.test_case "aggregate data" `Quick test_aggregate_undecodable_is_data;
    Alcotest.test_case "aggregate case 4" `Quick test_aggregate_linear_only_is_ambiguous;
    Alcotest.test_case "aggregate disagreement" `Quick test_aggregate_boundary_disagreement;
    Alcotest.test_case "aggregate starts" `Quick test_aggregate_code_starts_sorted;
    QCheck_alcotest.to_alcotest prop_table_matches_old_decode;
    Alcotest.test_case "table: text followed by rodata" `Quick test_table_text_then_rodata;
    Alcotest.test_case "table: truncated last instruction" `Quick test_table_truncated_last_insn;
    Alcotest.test_case "overlap-trap overlap accounting unchanged" `Quick
      test_overlap_trap_matches_reference;
    QCheck_alcotest.to_alcotest prop_overlap_matches_reference;
    QCheck_alcotest.to_alcotest prop_overlap_random_sources;
    QCheck_alcotest.to_alcotest prop_run_matches_untabled;
  ]
