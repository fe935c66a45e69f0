type t = {
  base : int;
  len : int;
  cover : int array;
  insns : (int, Zvm.Insn.t * int) Hashtbl.t;
}

let sweep ?decoded binary =
  let d = Decoded.for_binary ?decoded binary in
  let base = Decoded.base d and len = Decoded.len d in
  let cover = Array.make len (-1) in
  let insns = Hashtbl.create 256 in
  let off = ref 0 in
  while !off < len do
    let ilen = Decoded.length d !off in
    if ilen > 0 then begin
      Hashtbl.replace insns (base + !off) (Decoded.insn d !off, ilen);
      Array.fill cover !off ilen (base + !off);
      off := !off + ilen
    end
    else
      (* Data byte (or an instruction spilling off the section). *)
      incr off
  done;
  { base; len; cover; insns }

let covering_start t addr =
  if addr < t.base || addr >= t.base + t.len then None
  else
    let c = t.cover.(addr - t.base) in
    if c < 0 then None else Some c

let is_data t addr =
  addr >= t.base && addr < t.base + t.len && t.cover.(addr - t.base) < 0
