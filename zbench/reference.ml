(* The checked reference output of one workload input: rewritten once
   outside any timed region through [Pipeline.try_rewrite], then run
   through the oracle.  Timed outputs must match it byte for byte, so
   every timed output is checked. *)

type t = {
  output : bytes;
  rewritten : Zelf.Binary.t option;  (** the output, parsed back *)
  verdict : Oracle.verdict;
  size_overhead_pct : float;
}

(* [None] when the rewriter refuses the input with an explicit error.
   With [~dynamic:false] only the structural check runs; {!with_dynamic}
   adds the executions later.  [~quiet:true] does not print the
   refusal or the oracle's findings. *)
let make ?(dynamic = true) ?(quiet = false) ~config ~transforms (m : Members.t) =
  let orig = Members.binary m in
  match Zipr.Pipeline.try_rewrite ~config ~transforms orig with
  | Error msg ->
      if not quiet then Common.say "refused %s: %s" m.name msg;
      None
  | Ok r ->
      let output = Zelf.Binary.serialize r.rewritten in
      let rewritten, verdict =
        match Zelf.Binary.parse output with
        | Error e ->
            let problem =
              Format.asprintf "output does not parse: %a" Zelf.Binary.pp_parse_error e
            in
            (None, { Oracle.unchecked with problems = [ problem ] })
        | Ok rewritten ->
            let structural, structural_s = Oracle.structural ~orig ~ir:r.ir ~rewritten in
            let v = { Oracle.unchecked with problems = structural; structural_s } in
            ( Some rewritten,
              if dynamic then
                Oracle.add_dynamic ~inputs:(Oracle.inputs ~index:m.index) ~orig ~rewritten v
              else v )
      in
      if not quiet then List.iter (fun p -> Common.say "ORACLE %s: %s" m.name p) verdict.problems;
      Some
        {
          output;
          rewritten;
          verdict;
          size_overhead_pct = Oracle.size_overhead_pct ~input:m.raw ~output;
        }

let with_dynamic (m : Members.t) r =
  match r.rewritten with
  | None -> r
  | Some rewritten ->
      let before = List.length r.verdict.problems in
      let verdict =
        Oracle.add_dynamic ~inputs:(Oracle.inputs ~index:m.index) ~orig:(Members.binary m)
          ~rewritten r.verdict
      in
      List.iteri
        (fun i p -> if i >= before then Common.say "ORACLE %s: %s" m.name p)
        verdict.problems;
      { r with verdict }

(* Inputs the rewriter refuses are reported and left out of a draw;
   refusals above this share of it fail the run. *)
let max_refused_share = 0.05

let report_refused ~workload ~drawn (refused : Members.t list) =
  Common.say "%s: %d inputs drawn, %d refused by the rewriter%s" workload drawn
    (List.length refused)
    (if refused = [] then ""
     else " (" ^ String.concat ", " (List.map (fun (m : Members.t) -> m.name) refused) ^ ")");
  if float_of_int (List.length refused) > max_refused_share *. float_of_int drawn then
    failwith (Printf.sprintf "%s: too many refused inputs" workload)

let mean_size_overhead rs = Common.mean (List.map (fun r -> r.size_overhead_pct) rs)

(* Mean over the binaries with at least one input the original ran to a
   normal end on. *)
let mean_exec_overhead rs =
  Common.mean
    (List.filter_map
       (fun r -> if r.verdict.orig_insns > 0 then Some (Oracle.exec_overhead_pct r.verdict) else None)
       rs)

let failed_checks rs = List.length (List.filter (fun r -> not (Oracle.passed r.verdict)) rs)

let report_oracle rs =
  let executed = List.filter (fun r -> r.verdict.transcript_s > 0.0) rs in
  Common.say
    "oracle: %d outputs checked, %d executed on %d inputs each; %d inputs on which the \
     original faults were compared up to the fault; %d failed"
    (List.length rs) (List.length executed) Oracle.inputs_per_binary
    (List.fold_left (fun a r -> a + r.verdict.faulting_inputs) 0 rs)
    (failed_checks rs)

(* Mean oracle cost per checked output, in ms; the transcript mean
   counts only outputs that were executed. *)
let verify_ms rs =
  let executed = List.filter (fun r -> r.verdict.transcript_s > 0.0) rs in
  ( 1e3 *. Common.mean (List.map (fun r -> r.verdict.structural_s) rs),
    1e3 *. Common.mean (List.map (fun r -> r.verdict.transcript_s) executed) )
