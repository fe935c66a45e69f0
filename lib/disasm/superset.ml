(* Candidate instructions at every offset, pruned by flow validity. *)

let prune_fixpoint ?decoded binary =
  let d = Decoded.for_binary ?decoded binary in
  let base = Decoded.base d and len = Decoded.len d in
  let alive = Array.init len (fun off -> Decoded.length d off > 0) in
  let changed = ref true in
  while !changed do
    changed := false;
    for off = 0 to len - 1 do
      if alive.(off) then begin
        let insn = Decoded.insn d off and ilen = Decoded.length d off in
        let addr = base + off in
        let dead_flow target =
          (* Flow into the text at a dead offset kills the candidate;
             flow outside the text is left to other evidence. *)
          target >= base && target < base + len && not (alive.(target - base))
        in
        let kills =
          (Zvm.Insn.has_fallthrough insn && insn <> Zvm.Insn.Sys 0 && dead_flow (addr + ilen))
          ||
          match Zvm.Insn.static_target ~at:addr insn with
          | Some t -> dead_flow t
          | None -> false
        in
        if kills then begin
          alive.(off) <- false;
          changed := true
        end
      end
    done
  done;
  alive

let run ?decoded ?alive binary ~avoid =
  let d = Decoded.for_binary ?decoded binary in
  let base = Decoded.base d and len = Decoded.len d in
  let alive = match alive with Some a -> a | None -> prune_fixpoint ~decoded:d binary in
  (* Score surviving candidates: references from other survivors are
     evidence (probabilistic-disassembly flavour). *)
  let score = Array.make len 0 in
  for off = 0 to len - 1 do
    if alive.(off) then
      match Zvm.Insn.static_target ~at:(base + off) (Decoded.insn d off) with
      | Some t when t >= base && t < base + len && alive.(t - base) ->
          score.(t - base) <- score.(t - base) + 1
      | _ -> ()
  done;
  (* Greedy tiling: walk fallthrough chains from the best-scored seeds,
     claiming bytes not already claimed and not covered by [avoid]. *)
  let claims = Array.make len Claim.unknown in
  let avoided off = Recursive.reached avoid (base + off) in
  let free lo ilen =
    let ok = ref (lo + ilen <= len) in
    for i = lo to min (len - 1) (lo + ilen - 1) do
      if claims.(i) <> Claim.unknown || avoided i then ok := false
    done;
    !ok
  in
  let claim_chain start =
    let rec go off =
      if off < len && alive.(off) && not (avoided off) then
        let insn = Decoded.insn d off and ilen = Decoded.length d off in
        if free off ilen then begin
          Array.fill claims off ilen (base + off);
          if Zvm.Insn.has_fallthrough insn && insn <> Zvm.Insn.Sys 0 then go (off + ilen)
        end
    in
    go start
  in
  (* Seeds: surviving offsets, best score first, ties by offset. *)
  let n_alive = Array.fold_left (fun n a -> if a then n + 1 else n) 0 alive in
  let seeds = Array.make n_alive 0 in
  let k = ref 0 in
  for off = 0 to len - 1 do
    if alive.(off) then begin
      seeds.(!k) <- off;
      incr k
    end
  done;
  Array.sort
    (fun a b ->
      let c = Int.compare score.(b) score.(a) in
      if c <> 0 then c else Int.compare a b)
    seeds;
  Array.iter claim_chain seeds;
  (* Undecodable bytes are conclusive data; everything else we did not
     tile stays unknown (we are a low-confidence, best-effort source). *)
  for off = 0 to len - 1 do
    if claims.(off) = Claim.unknown && Decoded.length d off = 0 && not (avoided off) then
      claims.(off) <- Claim.data
  done;
  {
    Source.name = "superset";
    base;
    len;
    claims;
    decoded = d;
    confidence = Source.Low;
    kind = Source.Primary;
    tags = [||];
  }
