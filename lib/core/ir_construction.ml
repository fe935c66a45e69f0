module Db = Irdb.Db
module Agg = Disasm.Aggregate
module Iset = Zipr_util.Interval_set

type t = {
  db : Db.t;
  aggregate : Agg.t;
  pins : Analysis.Ibt.t;
  fixed_ranges : (int * int) list;
  data_ranges : (int * int) list;
  warnings : string list;
}

(* [sys 0] is the terminate system call: its syscall number is an
   immediate, so it statically never falls through.  Cutting the edge here
   keeps dead code after exit paths from being glued onto live dollops and
   from confusing function-entry analyses. *)
let falls_through insn =
  Zvm.Insn.has_fallthrough insn && insn <> Zvm.Insn.Sys 0

(* Decode a short chain of rows starting at an address that has no known
   instruction boundary (a pin landed mid-instruction or on bytes the
   disassemblers never claimed).  New rows link into existing boundaries
   when the chain re-synchronizes — the overlapping-instruction case real
   x86 rewriters must also survive. *)
let speculative_decode db binary warnings addr =
  let fetch a = Zelf.Binary.read8 binary a in
  let rec go a budget prev =
    match Db.find_by_orig_addr db a with
    | Some existing ->
        (* Re-synchronized with known code. *)
        (match prev with Some p -> Db.set_fallthrough db p (Some existing) | None -> ());
        None
    | None ->
        if budget = 0 then begin
          warnings := Printf.sprintf "speculative decode at 0x%x exceeded budget" a :: !warnings;
          None
        end
        else
          match Zvm.Decode.decode ~fetch a with
          | Error e ->
              warnings :=
                Printf.sprintf "speculative decode failed at 0x%x: %s" a
                  (Zvm.Decode.error_to_string e)
                :: !warnings;
              None
          | Ok (decoded, len) ->
              let insn = Mandatory.rewrite_insn ~at:a decoded in
              (* orig_addr stays empty: the primary row at this range owns
                 the by-address index. *)
              let id = Db.add_insn db insn in
              (match prev with Some p -> Db.set_fallthrough db p (Some id) | None -> ());
              (* Direct branch targets resolve against known rows — from
                 the decoded displacement, not the stored instruction:
                 [rewrite_insn] zeroes direct-branch displacements (the
                 logical [target] link is the truth), so resolving after
                 the rewrite would aim every branch at [a + len]. *)
              (match Zvm.Insn.static_target ~at:a decoded with
              | Some tgt -> (
                  match Db.find_by_orig_addr db tgt with
                  | Some tid -> Db.set_target db id (Some tid)
                  | None ->
                      warnings :=
                        Printf.sprintf "speculative branch at 0x%x targets unknown 0x%x" a tgt
                        :: !warnings)
              | None -> ());
              if falls_through insn then ignore (go (a + len) (budget - 1) (Some id));
              Some id
  and first a = go a 32 None in
  first addr

(* Everything downstream of disassembly: pin analysis, row/link
   construction, mandatory transforms, pin assignment, entry, function
   identification.  Factored out of {!build} so the validated build
   ({!Par_ir}, which is also the delta path's stitch) can run the
   {e identical} code over an aggregate materialized from a validated
   traversal — byte-identity of those paths rests on sharing this
   function, not reimplementing it. *)
let build_from_aggregate ?pin_config binary (aggregate : Agg.t) =
  let warnings = ref [] in
  List.iter (fun w -> warnings := w :: !warnings) aggregate.Agg.warnings;
  let pins =
    Obs.span "pins" (fun () -> Analysis.Ibt.compute ?config:pin_config binary aggregate)
  in
  Obs.span "irdb_build" (fun () ->
  let fixed_ranges, data_ranges, in_fixed, in_data =
    Obs.span "ranges" (fun () ->
        let fixed = Agg.ambiguous_ranges aggregate and data = Agg.data_ranges aggregate in
        (* Containment queries (fixed?/data?) run once per boundary and
           once per pin; interval sets make them O(log n) instead of a
           scan of the range list. *)
        (fixed, data, Iset.mem (Iset.of_ranges fixed), Iset.mem (Iset.of_ranges data)))
  in
  (* Rows in ascending address order (canonical: ids are independent of
     how the aggregate was acquired — the cache depends on cold builds
     being reproducible), and an offset-indexed id table that hands the
     link pass its fallthrough successors and branch targets without
     by-address hash lookups. *)
  let base = aggregate.Agg.base and alen = aggregate.Agg.len in
  let db, ids =
    Obs.span "rows" (fun () ->
        let db = Db.create ~size_hint:(Agg.boundary_count aggregate) ~orig:binary () in
        let ids = Array.make alen (-1) in
        Agg.iter_boundaries
          (fun addr insn _ ->
            let id = Db.add_insn ~orig_addr:addr db insn in
            ids.(addr - base) <- id;
            (* Fixed rows keep original bytes; marking here folds the old
               whole-db sweep into row creation. *)
            if in_fixed addr then (Db.row db id).Db.fixed <- true)
          aggregate;
        (db, ids))
  in
  (* Logical links, one more pass over the boundaries. *)
  Obs.span "links" (fun () ->
      Agg.iter_boundaries
        (fun addr insn len ->
          let id = ids.(addr - base) in
          (if falls_through insn then
             let nxt = addr - base + len in
             match (if nxt < alen then ids.(nxt) else -1) with
             | -1 ->
                 (* Falling into data or off the section: leave open. *)
                 if not (in_data (addr + len)) then
                   warnings :=
                     Printf.sprintf "instruction at 0x%x falls through to unknown 0x%x" addr
                       (addr + len)
                     :: !warnings
             | ft -> Db.set_fallthrough db id (Some ft));
          match Zvm.Insn.static_target ~at:addr insn with
          | Some tgt -> (
              let toff = tgt - base in
              match (if toff >= 0 && toff < alen then ids.(toff) else -1) with
              | -1 ->
                  warnings :=
                    Printf.sprintf "branch at 0x%x targets unknown 0x%x" addr tgt :: !warnings
              | tid -> Db.set_target db id (Some tid))
          | None -> ())
        aggregate);
  (* Mandatory transformations, before user transforms see the IR. *)
  Obs.span "mandatory" (fun () -> Mandatory.apply db);
  (* Pin assignment.  Pins that may be targeted by an indirect branch are
     marked (they receive the pin prologue, e.g. CFI landing bytes);
     conservative pins that only straight-line or direct control flow can
     reach are not. *)
  let indirect_reason = function
    | Analysis.Ibt.Data_scan | Analysis.Ibt.Code_immediate | Analysis.Ibt.Jump_table
    | Analysis.Ibt.Computed_target ->
        true
    | Analysis.Ibt.Entry | Analysis.Ibt.After_call | Analysis.Ibt.Fixed_target
    | Analysis.Ibt.Fixed_fallthrough ->
        false
  in
  Obs.span "pin_assign" (fun () ->
  List.iter
    (fun (addr, reasons) ->
      if List.exists indirect_reason reasons then Db.mark_pin db addr;
      if in_data addr then ()  (* data bytes are copied; nothing to pin *)
      else
        match Db.find_by_orig_addr db addr with
        | Some id -> Db.pin db id addr
        | None -> (
            if in_fixed addr then
              (* Inside fixed bytes but not on a decoded boundary: the
                 original bytes are preserved, so the address stays valid
                 without a reference. *)
              ()
            else
              match speculative_decode db binary warnings addr with
              | Some id -> Db.pin db id addr
              | None ->
                  warnings :=
                    Printf.sprintf "pin at 0x%x has no decodable instruction; dropped" addr
                    :: !warnings))
    (Analysis.Ibt.pins pins));
  (* Entry row. *)
  (match Db.find_by_orig_addr db binary.Zelf.Binary.entry with
  | Some id -> Db.set_entry db id
  | None -> warnings := "entry point is not a decoded instruction" :: !warnings);
  Obs.span "funcid" (fun () -> Analysis.Funcid.assign db);
  { db; aggregate; pins; fixed_ranges; data_ranges; warnings = List.rev !warnings })

let build ?pin_config ?(infer = false) ?decoded binary =
  let aggregate = Obs.span "disasm" (fun () -> Agg.run ~infer ?decoded binary) in
  build_from_aggregate ?pin_config binary aggregate

(* -- snapshot / restore: the payload behind Irdb.Cache -- *)

(* Bump whenever any serialized shape changes (including the embedded
   ZIRDB2 dump): the version participates in the cache key, so old
   entries become unreachable instead of misparsed. *)
let snapshot_version = "ZIRIR1"

(* The refinement pass's codec version.  It joins the fingerprint only
   when [--infer] is on, so every cache key (whole-binary snapshot,
   delta chunk, delta memo) gets a codec-version bump exactly then and
   stays byte-identical to previous releases otherwise. *)
let infer_codec_version = "ZIRINF1"

let fingerprint ?(infer = false) (config : Analysis.Ibt.config) =
  let base = Printf.sprintf "ibt:pin_after_calls=%b" config.Analysis.Ibt.pin_after_calls in
  if infer then Printf.sprintf "%s;infer=%s" base infer_codec_version else base

let reason_code = function
  | Analysis.Ibt.Entry -> 0
  | Analysis.Ibt.Data_scan -> 1
  | Analysis.Ibt.Code_immediate -> 2
  | Analysis.Ibt.Jump_table -> 3
  | Analysis.Ibt.After_call -> 4
  | Analysis.Ibt.Fixed_target -> 5
  | Analysis.Ibt.Fixed_fallthrough -> 6
  | Analysis.Ibt.Computed_target -> 7

let reason_of_code = function
  | 0 -> Some Analysis.Ibt.Entry
  | 1 -> Some Analysis.Ibt.Data_scan
  | 2 -> Some Analysis.Ibt.Code_immediate
  | 3 -> Some Analysis.Ibt.Jump_table
  | 4 -> Some Analysis.Ibt.After_call
  | 5 -> Some Analysis.Ibt.Fixed_target
  | 6 -> Some Analysis.Ibt.Fixed_fallthrough
  | 7 -> Some Analysis.Ibt.Computed_target
  | _ -> None

let verdict_char = function Agg.Code -> 'c' | Agg.Data -> 'd' | Agg.Ambiguous -> 'a'

let verdict_of_char = function
  | 'c' -> Some Agg.Code
  | 'd' -> Some Agg.Data
  | 'a' -> Some Agg.Ambiguous
  | _ -> None

let snapshot t =
  let agg = t.aggregate in
  let buf = Buffer.create (65536 + (Db.count t.db * 48)) in
  Buffer.add_string buf (snapshot_version ^ "\n");
  Buffer.add_string buf (Printf.sprintf "B %d %d\n" agg.Agg.base agg.Agg.len);
  (* Verdicts, run-length encoded: long uniform code/data stretches
     dominate real layouts. *)
  Buffer.add_string buf "V";
  let i = ref 0 in
  while !i < agg.Agg.len do
    let v = agg.Agg.verdicts.(!i) in
    let j = ref !i in
    while !j < agg.Agg.len && agg.Agg.verdicts.(!j) = v do incr j done;
    Buffer.add_string buf (Printf.sprintf " %c%d" (verdict_char v) (!j - !i));
    i := !j
  done;
  Buffer.add_char buf '\n';
  (* Decoded boundaries, ascending address (canonical, diff-friendly). *)
  Agg.iter_boundaries
    (fun addr insn len ->
      Buffer.add_string buf
        (Printf.sprintf "A %d %s %d\n" addr
           (Zipr_util.Hex.of_bytes (Zvm.Encode.to_bytes insn))
           len))
    agg;
  (* Aggregation tally (per-case byte counts) and refined-byte runs, so
     cache hits reproduce the same stats and refinement provenance as the
     cold build.  Absent in older payloads; restore then falls back to a
     verdict-derived tally. *)
  let ty = agg.Agg.tally in
  Buffer.add_string buf
    (Printf.sprintf "T %d %d %d %d %d %d %d %d\n" ty.Agg.case1_code ty.Agg.case1_data
       ty.Agg.case2_disagree ty.Agg.case3_contradict ty.Agg.case4_low_confidence
       ty.Agg.overlap_len_mismatch ty.Agg.refined_code ty.Agg.refined_data);
  List.iter
    (fun (fact, n) -> Buffer.add_string buf (Printf.sprintf "TF %s %d\n" fact n))
    ty.Agg.refined_by_fact;
  (* Refined offsets, run-length encoded per provenance tag. *)
  let rec emit_refined = function
    | [] -> ()
    | (off, tag) :: _ as entries ->
        let rec run n = function
          | (o, t) :: rest when o = off + n && t = tag -> run (n + 1) rest
          | rest -> (n, rest)
        in
        let n, rest = run 0 entries in
        Buffer.add_string buf (Printf.sprintf "R %d %d %s\n" off n tag);
        emit_refined rest
  in
  emit_refined agg.Agg.refined;
  (* Pin hints (resolved computed-jump targets); only present under
     [--infer], so older payloads and infer-off payloads never carry the
     record. *)
  (match agg.Agg.pin_hints with
  | [] -> ()
  | hints ->
      Buffer.add_string buf
        (Printf.sprintf "H %s\n" (String.concat "," (List.map string_of_int hints))));
  List.iter
    (fun w -> Buffer.add_string buf (Printf.sprintf "GW %s\n" (String.escaped w)))
    agg.Agg.warnings;
  List.iter
    (fun w -> Buffer.add_string buf (Printf.sprintf "W %s\n" (String.escaped w)))
    t.warnings;
  List.iter
    (fun (addr, reasons) ->
      Buffer.add_string buf
        (Printf.sprintf "P %d %s\n" addr
           (String.concat "," (List.map (fun r -> string_of_int (reason_code r)) reasons))))
    (Analysis.Ibt.pins t.pins);
  Buffer.add_string buf "DB\n";
  Buffer.add_string buf (Irdb.Dump.serialize_exact t.db);
  Buffer.contents buf

exception Restore of string

(* The "DB" line splits the snapshot: header records above, an embedded
   ZIRDB2 dump (parsed by its own codec) below. *)
let split_at_db_marker s =
  let n = String.length s in
  if n >= 3 && String.sub s 0 3 = "DB\n" then Some ("", String.sub s 3 (n - 3))
  else
    let rec go i =
      match String.index_from_opt s i '\n' with
      | None -> None
      | Some j ->
          if j + 3 < n && s.[j + 1] = 'D' && s.[j + 2] = 'B' && s.[j + 3] = '\n' then
            Some (String.sub s 0 (j + 1), String.sub s (j + 4) (n - j - 4))
          else go (j + 1)
    in
    go 0

let restore ?decoded binary payload =
  try
    let header, dump =
      match split_at_db_marker payload with
      | Some parts -> parts
      | None -> raise (Restore "no DB section")
    in
    let base = ref 0 and len = ref (-1) in
    let verdicts = ref [||] in
    let boundaries = ref (Agg.empty_boundaries 0) in
    (* Every boundary is checked against the text's decode table, which
       its instruction then comes from. *)
    let d = Disasm.Decoded.for_binary ?decoded binary in
    let agg_warnings = ref [] in
    let ir_warnings = ref [] in
    let pin_list = ref [] in
    let tally = ref None in
    let fact_list = ref [] in
    let refined = ref [] in
    let pin_hints = ref [] in
    List.iteri
      (fun lineno line ->
        let fail msg = raise (Restore (Printf.sprintf "line %d: %s" (lineno + 1) msg)) in
        match String.split_on_char ' ' line with
        | [ "" ] | [] -> ()
        | [ v ] when v = snapshot_version -> if lineno <> 0 then fail "misplaced header"
        | [ v ] when String.length v >= 5 && String.sub v 0 5 = "ZIRIR" ->
            fail "snapshot version mismatch"
        | [ "B"; b; l ] ->
            base := int_of_string b;
            len := int_of_string l;
            if !base <> Disasm.Decoded.base d || !len <> Disasm.Decoded.len d then
              fail "text range differs from the binary's";
            verdicts := Array.make !len Agg.Data;
            boundaries := Agg.empty_boundaries !len
        | "V" :: runs ->
            if !len < 0 then fail "V before B";
            let off = ref 0 in
            List.iter
              (fun tok ->
                if tok <> "" then begin
                  let v =
                    match verdict_of_char tok.[0] with
                    | Some v -> v
                    | None -> fail "bad verdict code"
                  in
                  let count = int_of_string (String.sub tok 1 (String.length tok - 1)) in
                  if !off + count > !len then fail "verdict run overflows section";
                  Array.fill !verdicts !off count v;
                  off := !off + count
                end)
              runs;
            if !off <> !len then fail "verdict runs do not cover section"
        | [ "A"; addr; hex; ilen ] ->
            (* The record must be what [snapshot] writes for this text: the
               table's entry at its offset, in canonical encoding. *)
            let off = int_of_string addr - !base in
            if
              off < 0 || off >= !len
              || Disasm.Decoded.length d off <> int_of_string ilen
              || Disasm.Decoded.length d off = 0
              || Zipr_util.Hex.of_bytes (Zvm.Encode.to_bytes (Disasm.Decoded.insn d off)) <> hex
            then fail "boundary disagrees with the text";
            Agg.add_boundary !boundaries d off
        | [ "T"; c1c; c1d; c2; c3; c4; ov; rc; rd ] ->
            tally :=
              Some
                {
                  Agg.case1_code = int_of_string c1c;
                  case1_data = int_of_string c1d;
                  case2_disagree = int_of_string c2;
                  case3_contradict = int_of_string c3;
                  case4_low_confidence = int_of_string c4;
                  overlap_len_mismatch = int_of_string ov;
                  refined_code = int_of_string rc;
                  refined_data = int_of_string rd;
                  refined_by_fact = [];
                }
        | [ "TF"; fact; n ] -> fact_list := (fact, int_of_string n) :: !fact_list
        | [ "H"; hints ] ->
            pin_hints := List.map int_of_string (String.split_on_char ',' hints)
        | [ "R"; off; n; tag ] ->
            let off = int_of_string off and n = int_of_string n in
            for i = n - 1 downto 0 do
              refined := (off + i, tag) :: !refined
            done
        | "GW" :: rest -> agg_warnings := Scanf.unescaped (String.concat " " rest) :: !agg_warnings
        | "W" :: rest -> ir_warnings := Scanf.unescaped (String.concat " " rest) :: !ir_warnings
        | [ "P"; addr; codes ] ->
            let reasons =
              List.map
                (fun c ->
                  match reason_of_code (int_of_string c) with
                  | Some r -> r
                  | None -> fail "bad pin reason code")
                (String.split_on_char ',' codes)
            in
            pin_list := (int_of_string addr, reasons) :: !pin_list
        | _ -> fail "unrecognized record")
      (String.split_on_char '\n' header);
    if !len < 0 then raise (Restore "missing B record");
    let aggregate =
      {
        Agg.base = !base;
        len = !len;
        verdicts = !verdicts;
        boundaries = !boundaries;
        warnings = List.rev !agg_warnings;
        tally =
          (match !tally with
          | Some t -> { t with Agg.refined_by_fact = List.rev !fact_list }
          (* Pre-tally payload: recover the agreement counts from the
             verdicts; the ambiguous-case split is unknowable. *)
          | None -> Agg.tally_of_verdicts !verdicts);
        refined = List.sort compare !refined;
        pin_hints = !pin_hints;
      }
    in
    match Irdb.Dump.deserialize_exact ~size_hint:(Agg.boundary_count aggregate) ~orig:binary dump with
    | Error msg -> Error ("irdb: " ^ msg)
    | Ok db ->
        Ok
          {
            db;
            aggregate;
            pins = Analysis.Ibt.of_pins (List.rev !pin_list);
            (* Pure functions of the verdicts; cheaper to recompute than
               to persist and cross-check. *)
            fixed_ranges = Agg.ambiguous_ranges aggregate;
            data_ranges = Agg.data_ranges aggregate;
            warnings = List.rev !ir_warnings;
          }
  with
  | Restore msg -> Error msg
  | Scanf.Scan_failure msg -> Error msg
  | Failure msg -> Error msg
  | Invalid_argument msg -> Error msg
  | Not_found -> Error "no text section"
