type verdict = Code | Data | Ambiguous

type tally = {
  case1_code : int;
  case1_data : int;
  case2_disagree : int;
  case3_contradict : int;
  case4_low_confidence : int;
  overlap_len_mismatch : int;
  refined_code : int;
  refined_data : int;
  refined_by_fact : (string * int) list;
}

let tally_zero =
  {
    case1_code = 0;
    case1_data = 0;
    case2_disagree = 0;
    case3_contradict = 0;
    case4_low_confidence = 0;
    overlap_len_mismatch = 0;
    refined_code = 0;
    refined_data = 0;
    refined_by_fact = [];
  }

(* Associative, commutative fact-count union: merged per name, sorted, so
   a batch total is independent of job order and count. *)
let merge_facts a b =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (k, v) -> Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    (a @ b);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let merge_stats a b =
  {
    case1_code = a.case1_code + b.case1_code;
    case1_data = a.case1_data + b.case1_data;
    case2_disagree = a.case2_disagree + b.case2_disagree;
    case3_contradict = a.case3_contradict + b.case3_contradict;
    case4_low_confidence = a.case4_low_confidence + b.case4_low_confidence;
    overlap_len_mismatch = a.overlap_len_mismatch + b.overlap_len_mismatch;
    refined_code = a.refined_code + b.refined_code;
    refined_data = a.refined_data + b.refined_data;
    refined_by_fact = merge_facts a.refined_by_fact b.refined_by_fact;
  }

(* Verdict-only tally for aggregates materialized from a validated
   traversal (stitch/parallel paths): no disagreement by construction, so
   every byte is case 1. *)
let tally_of_verdicts verdicts =
  let code = ref 0 and data = ref 0 in
  Array.iter (function Code -> incr code | Data -> incr data | Ambiguous -> ()) verdicts;
  { tally_zero with case1_code = !code; case1_data = !data }

let tally_fields t =
  [
    ("case1_code", t.case1_code);
    ("case1_data", t.case1_data);
    ("case2_disagree", t.case2_disagree);
    ("case3_contradict", t.case3_contradict);
    ("case4_low_confidence", t.case4_low_confidence);
    ("overlap_len_mismatch", t.overlap_len_mismatch);
    ("refined_code", t.refined_code);
    ("refined_data", t.refined_data);
  ]
  @ List.map (fun (k, v) -> ("refined." ^ k, v)) t.refined_by_fact

(* The boundary store: per text offset, the encoded length of the
   instruction starting there (0: no boundary) and, at boundaries, that
   instruction.  A copy of the decode table's entries rather than a view
   of the table: the delta memo keeps whole aggregates, and the table
   holds a decoded candidate at every offset of the text. *)
type boundaries = { ilen : Bytes.t; insn : Zvm.Insn.t array; mutable count : int }

let empty_boundaries len =
  { ilen = Bytes.make len '\000'; insn = Array.make len Zvm.Insn.Nop; count = 0 }

let add_boundary b d off =
  let n = Decoded.length d off in
  if n > 0 then begin
    if Bytes.get b.ilen off = '\000' then b.count <- b.count + 1;
    Bytes.set b.ilen off (Char.chr n);
    b.insn.(off) <- Decoded.insn d off
  end

type t = {
  base : int;
  len : int;
  verdicts : verdict array;
  boundaries : boundaries;
  warnings : string list;
  tally : tally;
  refined : (int * string) list;
  pin_hints : int list;
}

let pp_verdict ppf = function
  | Code -> Format.pp_print_string ppf "code"
  | Data -> Format.pp_print_string ppf "data"
  | Ambiguous -> Format.pp_print_string ppf "ambiguous"

(* Satellite accounting: ranges where sources claim overlapping
   instructions of {e different lengths}.  The per-byte loop below folds
   these into cases 2/4 (correct but silent); here each overlapping
   boundary pair with mismatched lengths is reported and counted, without
   changing any verdict.

   Equivalent to sorting every boundary of every source by (address,
   length, source name) and pairing each with the earlier boundaries
   still covering its address, most recent first — but done as one sweep
   over text offsets against per-source boundary-length arrays, read off
   the sources' covers (a boundary's length is the number of bytes
   claiming its start).  At each
   offset the boundaries there are ordered by (length, name); a boundary
   is checked against the ones before it at the same offset, then
   against the boundaries of the preceding [max_len - 1] offsets that
   reach it, nearest first. *)
let overlap_mismatches ~base ~len (primaries : Source.t list) =
  let srcs = Array.of_list primaries in
  let n = Array.length srcs in
  let max_len = ref 1 in
  let lens =
    Array.map
      (fun (s : Source.t) ->
        let a = Array.make len 0 in
        Array.iter
          (fun start ->
            if start >= 0 then begin
              let o = start - base in
              a.(o) <- a.(o) + 1;
              if a.(o) > !max_len then max_len := a.(o)
            end)
          s.Source.claims;
        a)
      srcs
  in
  let name i = srcs.(i).Source.name in
  (* Boundaries at [off] as source indices, by (length, name). *)
  let at off =
    List.filter (fun i -> lens.(i).(off) > 0) (List.init n Fun.id)
    |> List.stable_sort (fun i j ->
           let c = Int.compare lens.(i).(off) lens.(j).(off) in
           if c <> 0 then c else String.compare (name i) (name j))
  in
  let count = ref 0 and warnings = ref [] in
  let warn (i, a) (j, b) =
    incr count;
    warnings :=
      Printf.sprintf
        "overlapping instruction claims of different lengths: %s@0x%x+%d vs %s@0x%x+%d"
        (name i) (base + a) lens.(i).(a) (name j) (base + b) lens.(j).(b)
      :: !warnings
  in
  let reach off = Int.min off (!max_len - 1) in
  (* Does a boundary starting [back] bytes before [off] reach it with a
     length other than [l]? *)
  let mismatch_back off l back =
    let hit = ref false in
    for i = 0 to n - 1 do
      let l' = lens.(i).(off - back) in
      if l' > back && l' <> l then hit := true
    done;
    !hit
  in
  for off = 0 to len - 1 do
    let lmin = ref max_int and lmax = ref 0 in
    for i = 0 to n - 1 do
      let l = lens.(i).(off) in
      if l > 0 then begin
        lmin := Int.min !lmin l;
        lmax := Int.max !lmax l
      end
    done;
    if !lmax > 0 then begin
      (* Allocation-free common case: one length here, and nothing
         earlier reaching here with another. *)
      let quiet = ref (!lmin = !lmax) in
      for back = 1 to reach off do
        if !quiet && mismatch_back off !lmin back then quiet := false
      done;
      if not !quiet then begin
        let here = ref [] in
        List.iter
          (fun j ->
            let l = lens.(j).(off) in
            List.iter
              (fun k -> if lens.(k).(off) <> l && name k <> name j then warn (k, off) (j, off))
              !here;
            for back = 1 to reach off do
              let a = off - back in
              List.iter
                (fun k ->
                  let l' = lens.(k).(a) in
                  if l' > back && l' <> l then warn (k, a) (j, off))
                (List.rev (at a))
            done;
            here := j :: !here)
          (at off)
      end
    end
  done;
  (!count, List.rev !warnings)

(* N-way aggregation rule (generalizing the paper's case analysis to any
   number of tools):

   - a byte is [Code] iff at least one high-confidence primary source
     claims it as code and every primary that claims anything agrees on
     the covering instruction's start;
   - a byte is [Data] iff no primary claims it as code;
   - anything else — disagreement, or code claimed only by low-confidence
     sources (possibly misdecoded data, case 4) — is [Ambiguous].

   Refiner sources never participate in that verdict: afterwards they may
   flip bytes judged [Ambiguous] (to [Code] when consistent with every
   primary code claim, to [Data] when no high-confidence claim opposes),
   and nothing else.  A byte the primaries agreed on is never overturned,
   so with the refiners of {!Infer} the paper's conservatism is preserved
   and soundness reduces to the inference pass alone. *)
let combine_sources binary (sources : Source.t list) =
  (match sources with
  | [] -> invalid_arg "Aggregate.combine_sources: no sources"
  | _ -> ());
  let first = List.hd sources in
  let base = first.Source.base and len = first.Source.len in
  List.iter
    (fun (s : Source.t) ->
      if s.Source.base <> base || s.Source.len <> len then
        invalid_arg "Aggregate.combine_sources: sources cover different ranges")
    sources;
  let primaries = List.filter (fun (s : Source.t) -> s.Source.kind = Source.Primary) sources in
  let refiners = List.filter (fun (s : Source.t) -> s.Source.kind = Source.Refiner) sources in
  (match primaries with
  | [] -> invalid_arg "Aggregate.combine_sources: no primary source"
  | _ -> ());
  (* Preextract the per-source claim arrays and confidences once, then
     judge every byte in a single allocation-free inner loop: the verdict
     needs only the first claimed start, start agreement, whether any
     high-confidence tool claimed code, and whether any tool claimed data.
     Allocation happens only on the (rare) warning paths. *)
  let srcs = Array.of_list primaries in
  let n_sources = Array.length srcs in
  let claims = Array.map (fun (s : Source.t) -> s.Source.claims) srcs in
  let high = Array.map (fun (s : Source.t) -> s.Source.confidence = Source.High) srcs in
  let verdicts = Array.make len Data in
  let warnings = ref [] in
  let warn fmt = Format.kasprintf (fun s -> warnings := s :: !warnings) fmt in
  let c1_code = ref 0 and c1_data = ref 0 in
  let c2 = ref 0 and c3 = ref 0 and c4 = ref 0 in
  for off = 0 to len - 1 do
    let n_code = ref 0 and start0 = ref 0 and agree = ref true in
    let high_claim = ref false and data_claimed = ref false in
    for i = 0 to n_sources - 1 do
      let start = claims.(i).(off) in
      if start >= 0 then begin
        if !n_code = 0 then start0 := start else if start <> !start0 then agree := false;
        incr n_code;
        if high.(i) then high_claim := true
      end
      else if start = Claim.data then data_claimed := true
    done;
    verdicts.(off) <-
      (if !n_code = 0 then begin incr c1_data; Data end
       else if not !agree then begin
         warn "boundary disagreement at 0x%x (%s)" (base + off)
           (String.concat ", "
              (List.filter_map
                 (fun (s : Source.t) ->
                   let st = s.Source.claims.(off) in
                   if st >= 0 then Some (Printf.sprintf "%s@0x%x" s.Source.name st) else None)
                 primaries));
         incr c2;
         Ambiguous
       end
       else if !data_claimed then begin
         if !high_claim then
           warn "data claim at 0x%x contradicted by a high-confidence code claim" (base + off);
         incr c3;
         Ambiguous
       end
       else if !high_claim then begin incr c1_code; Code end
       else begin (* only low-confidence tools call it code: case 4 *) incr c4; Ambiguous end)
  done;
  let overlap_count, overlap_warnings = overlap_mismatches ~base ~len primaries in
  List.iter (fun w -> warnings := w :: !warnings) overlap_warnings;
  (* Refinement pass: each refiner may flip ambiguous bytes only.  A flip
     to code at [start] requires every primary code claim on the byte to
     agree with [start] (high-confidence data claims would keep it
     ambiguous, but no primary emits those); a flip to [Data] requires no
     high-confidence code claim.  Flips record the refiner's per-byte
     provenance tag, and the start of each instruction flipped to code
     becomes a boundary below, so downstream IR construction sees the
     refined code. *)
  let refined = ref [] in
  let r_code = ref 0 and r_data = ref 0 in
  let fact_counts = Hashtbl.create 8 in
  let bump_fact tag =
    Hashtbl.replace fact_counts tag (1 + Option.value ~default:0 (Hashtbl.find_opt fact_counts tag))
  in
  let flipped_start = Bytes.make len '\000' in
  List.iter
    (fun (r : Source.t) ->
      for off = 0 to len - 1 do
        let claim = r.Source.claims.(off) in
        if verdicts.(off) = Ambiguous && claim <> Claim.unknown then begin
          let ok = ref true in
          for i = 0 to n_sources - 1 do
            let st = claims.(i).(off) in
            if st >= 0 && if claim >= 0 then st <> claim else high.(i) then ok := false
          done;
          if !ok then begin
            let tag = Source.tag_at r off in
            bump_fact tag;
            refined := (off, tag) :: !refined;
            if claim >= 0 then begin
              verdicts.(off) <- Code;
              incr r_code;
              Bytes.set flipped_start (claim - base) '\001'
            end
            else begin
              verdicts.(off) <- Data;
              incr r_data
            end
          end
        end
      done)
    refiners;
  (* One pass over offsets: a boundary is any primary's instruction start,
     or the start of an instruction a refiner flipped to code, outside
     bytes judged pure data.  Every source reads the same decode table
     (or an equal one), so which source supplied a start does not
     matter. *)
  let decoded = first.Source.decoded in
  let boundaries = empty_boundaries len in
  for off = 0 to len - 1 do
    if verdicts.(off) <> Data then begin
      let start = ref (Bytes.get flipped_start off <> '\000') in
      for i = 0 to n_sources - 1 do
        if claims.(i).(off) = base + off then start := true
      done;
      if !start then add_boundary boundaries decoded off
    end
  done;
  ignore binary;
  let tally =
    {
      case1_code = !c1_code;
      case1_data = !c1_data;
      case2_disagree = !c2;
      case3_contradict = !c3;
      case4_low_confidence = !c4;
      overlap_len_mismatch = overlap_count;
      refined_code = !r_code;
      refined_data = !r_data;
      refined_by_fact =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) fact_counts [] |> List.sort compare;
    }
  in
  {
    base;
    len;
    verdicts;
    boundaries;
    warnings = List.rev !warnings;
    tally;
    refined = List.sort compare !refined;
    pin_hints = [];
  }

let run ?(infer = false) ?decoded binary =
  let decoded =
    Obs.span "decode" (fun () ->
        let d = Decoded.for_binary ?decoded binary in
        (* The superset source reads every offset anyway: filling here
           puts the whole decode cost under one span. *)
        Decoded.fill d;
        d)
  in
  let lin = Obs.span "linear" (fun () -> Source.of_linear (Linear.sweep ~decoded binary)) in
  let rec_, rec_src =
    Obs.span "recursive" (fun () ->
        let r = Recursive.traverse ~decoded binary in
        (r, Source.of_recursive r))
  in
  (* The prune fixpoint feeds both the superset tiling and, when enabled,
     the inference refiner (evidence only): computed once. *)
  let alive, spec =
    Obs.span "superset" (fun () ->
        let alive = Superset.prune_fixpoint ~decoded binary in
        (alive, Superset.run ~decoded ~alive binary ~avoid:rec_))
  in
  let sources = [ lin; spec; rec_src ] in
  if infer then begin
    let inf = Obs.span "infer" (fun () -> Infer.run ~decoded ~alive binary ~avoid:rec_) in
    let agg = Obs.span "combine" (fun () -> combine_sources binary (sources @ [ inf.Infer.source ])) in
    { agg with pin_hints = inf.Infer.pin_hints }
  end
  else Obs.span "combine" (fun () -> combine_sources binary sources)

let verdict_at t addr =
  if addr < t.base || addr >= t.base + t.len then None else Some t.verdicts.(addr - t.base)

(* Maximal [lo, hi) address runs of bytes judged [v], ascending. *)
let ranges t v =
  let ranges = ref [] in
  let start = ref (-1) in
  for off = 0 to t.len - 1 do
    match (t.verdicts.(off) = v, !start) with
    | true, -1 -> start := off
    | true, _ | false, -1 -> ()
    | false, s ->
        ranges := (t.base + s, t.base + off) :: !ranges;
        start := -1
  done;
  if !start >= 0 then ranges := (t.base + !start, t.base + t.len) :: !ranges;
  List.rev !ranges

let ambiguous_ranges t = ranges t Ambiguous
let data_ranges t = ranges t Data

let boundary t addr =
  let off = addr - t.base in
  if off < 0 || off >= t.len then None
  else
    match Char.code (Bytes.get t.boundaries.ilen off) with
    | 0 -> None
    | n -> Some (t.boundaries.insn.(off), n)

let iter_boundaries f t =
  let b = t.boundaries in
  for off = 0 to t.len - 1 do
    let n = Char.code (Bytes.unsafe_get b.ilen off) in
    if n > 0 then f (t.base + off) b.insn.(off) n
  done

let boundary_count t = t.boundaries.count

let code_starts t =
  let acc = ref [] in
  iter_boundaries (fun addr _ _ -> acc := addr :: !acc) t;
  List.rev !acc

let stats t =
  let code = ref 0 and data = ref 0 and amb = ref 0 in
  Array.iter
    (function Code -> incr code | Data -> incr data | Ambiguous -> incr amb)
    t.verdicts;
  (!code, !data, !amb)
