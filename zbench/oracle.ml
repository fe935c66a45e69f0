(* The correctness oracle.  Every rewritten binary must pass the
   structural validator and behave like its original on random inputs.  The reference is always the original binary run in the ZVM,
   never the rewriter.  The same executions count retired instructions
   for the run-time overhead metric. *)

module Rng = Zipr_util.Rng

let inputs_per_binary = 3

(* Random inputs of 32-128 bytes, a pure function of the binary's index
   in its population: the same binary is always checked on the same
   inputs, whichever seed drew it. *)
let inputs ~index =
  let rng = Rng.create (Rng.derive ~corpus_seed:0x5eed ~index) in
  List.init inputs_per_binary (fun _ ->
      Bytes.to_string (Rng.bytes rng (Rng.int_in rng 32 128)))

type verdict = {
  problems : string list;  (** empty when every check passed *)
  orig_insns : int;  (** instructions the original retired over all inputs *)
  new_insns : int;  (** the same for the rewritten binary *)
  faulting_inputs : int;  (** inputs on which the original faults *)
  structural_s : float;
  transcript_s : float;
}

let unchecked =
  {
    problems = [];
    orig_insns = 0;
    new_insns = 0;
    faulting_inputs = 0;
    structural_s = 0.0;
    transcript_s = 0.0;
  }

let passed v = v.problems = []

let exec_overhead_pct v =
  if v.orig_insns = 0 then 0.0
  else 100.0 *. float_of_int (v.new_insns - v.orig_insns) /. float_of_int v.orig_insns

let issues (r : Zipr.Verify.report) =
  List.map (fun (i : Zipr.Verify.issue) -> i.check ^ ": " ^ i.detail) r.issues

let structural ~orig ~ir ~rewritten =
  let t0 = Common.now () in
  let r = Zipr.Verify.structural ~orig ~ir ~rewritten in
  (issues r, Common.now () -. t0)

(* Instruction budget of one execution of the original; the rewritten
   binary gets twice that, as in the differential fuzzer. *)
let fuel = 2_000_000

let rec is_prefix a b =
  match (a, b) with [], _ -> true | x :: a, y :: b -> x = y && is_prefix a b | _ -> false

(* Runs both binaries on every input with [Verify.execute].  Where the
   original ends normally, the rewritten binary must match it as
   [Verify.transcripts] requires: same output, stop status and ordered
   syscall trace; those executions also give the retired-instruction
   counts.  Where the original faults (random bytes can drive a program
   off its stack), only its behaviour up to the fault is defined: the
   rewritten binary must produce that output and syscall trace as a
   prefix of its own.  Rewriting moves code, so even the Null transform
   faults at another pc, and a layout transform such as stack-pad may
   turn the faulting access into a mapped one.  An input on which the
   original exhausts its budget decides nothing. *)
let add_dynamic ~inputs ~orig ~rewritten v =
  let t0 = Common.now () in
  let problems = ref [] and orig_insns = ref 0 and new_insns = ref 0 and faulting = ref 0 in
  List.iter
    (fun input ->
      let a = Zipr.Verify.execute ~fuel orig ~input in
      if a.stop <> Zvm.Vm.Fault Zvm.Vm.Fuel_exhausted then begin
        let b = Zipr.Verify.execute ~fuel:((2 * fuel) + 4096) rewritten ~input in
        let same =
          match a.stop with
          | Zvm.Vm.Fault _ ->
              incr faulting;
              String.starts_with ~prefix:a.output b.output && is_prefix a.syscalls b.syscalls
          | _ ->
              orig_insns := !orig_insns + a.insns;
              new_insns := !new_insns + b.insns;
              Zvm.Vm.equal_stop a.stop b.stop && a.output = b.output && a.syscalls = b.syscalls
        in
        if not same then
          problems :=
            Printf.sprintf "transcript: divergence on %S: %s %S vs %s %S" input
              (Zvm.Vm.stop_to_string a.stop) a.output (Zvm.Vm.stop_to_string b.stop) b.output
            :: !problems
      end)
    inputs;
  {
    v with
    problems = v.problems @ List.rev !problems;
    orig_insns = !orig_insns;
    new_insns = !new_insns;
    faulting_inputs = !faulting;
    transcript_s = Common.now () -. t0;
  }

let size_overhead_pct ~input ~output =
  100.0 *. float_of_int (Bytes.length output - Bytes.length input)
  /. float_of_int (Bytes.length input)
