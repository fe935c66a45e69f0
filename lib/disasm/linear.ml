type t = { base : int; len : int; cover : int array; decoded : Decoded.t }

let sweep ?decoded binary =
  let d = Decoded.for_binary ?decoded binary in
  let base = Decoded.base d and len = Decoded.len d in
  let cover = Array.make len Claim.data in
  let off = ref 0 in
  while !off < len do
    let ilen = Decoded.length d !off in
    if ilen > 0 then begin
      Array.fill cover !off ilen (base + !off);
      off := !off + ilen
    end
    else
      (* Data byte (or an instruction spilling off the section). *)
      incr off
  done;
  { base; len; cover; decoded = d }
