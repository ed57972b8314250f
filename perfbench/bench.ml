(* The repository benchmark: one workload, one seed, one run.

     bench.exe --workload serve-oltp|quantified|join-report --seed N
               --seconds S --trace 0|1 [--smoke] [--plant-wrong]

   Prints a few "# key: value" information lines, then, as its last
   line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics untraced (--trace 0) or the per-layer metrics from a traced
   run (--trace 1).  Exits 1 when any answer or durability check fails.
   run.py builds this program and the server and forwards its
   arguments; see README.md. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("read_p50_ms", "ms");
    ("read_p99_ms", "ms");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("lang.parse_us", "us");
    ("planning.plan_us", "us");
    ("planning.share", "ratio");
    ("plan_cache.hit_ratio", "ratio");
    ("server.overhead_ms", "ms");
    ("txn.commit_ms", "ms");
    ("wal.bytes_per_write", "bytes");
    ("write_p50_ms", "ms");
    ("write_p99_ms", "ms");
    ("recovery_s", "s");
    ("collection.ms_per_op", "ms");
    ("collection.share", "ratio");
    ("collection.scans_per_op", "count");
    ("collection.intermediate_tuples", "count");
    ("collection.alloc_words", "words");
    ("collection.index_path_ratio", "ratio");
    ("combination.ms_per_op", "ms");
    ("combination.share", "ratio");
    ("combination.max_ntuple", "count");
    ("combination.useful_ratio", "ratio");
    ("combination.alloc_words", "words");
    ("combination.nlj_steps", "count");
    ("combination.hash_steps", "count");
    ("combination.batched_nlj_steps", "count");
    ("construction.ms_per_op", "ms");
    ("construction.share", "ratio");
    ("construction.us_per_row", "us");
    ("construction.alloc_words", "words");
    ("parallel.tasks_per_op", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("trace.op_ms", "ms");
    ("trace.accounted_frac", "ratio");
    ("trace.overhead_frac", "ratio");
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload serve-oltp|quantified|join-report --seed N \
     --seconds S --trace 0|1 [--smoke] [--plant-wrong]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref false and smoke = ref false and plant_wrong = ref false in
  let rec go = function
    | "--workload" :: w :: rest ->
      workload := w;
      go rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      go rest
    | "--seconds" :: n :: rest ->
      seconds := float_of_string_opt n;
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := t = "1";
      go rest
    | "--smoke" :: rest ->
      smoke := true;
      go rest
    | "--plant-wrong" :: rest ->
      plant_wrong := true;
      go rest
    | [] -> ()
    | arg :: _ ->
      Printf.eprintf "perfbench: unexpected argument %s\n" arg;
      usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds) with
  | Some seed, Some seconds when seconds > 0. ->
    let dir =
      Filename.concat ".perfbench"
        (Printf.sprintf "run-%s-%d-%d" !workload seed (Unix.getpid ()))
    in
    {
      Common.workload = !workload;
      seed;
      seconds;
      trace = !trace;
      smoke = !smoke;
      plant_wrong = !plant_wrong;
      dir;
    }
  | _ -> usage ()

(* The benchmark measures the engine as shipped: no PASCALR_* knob may
   reach it (or the server it starts) from the environment. *)
let refuse_knobs () =
  let knobs =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv -> String.length kv > 8 && String.sub kv 0 8 = "PASCALR_")
  in
  if knobs <> [] then begin
    Printf.eprintf "perfbench: refusing to run with %s set: measure shipped defaults\n"
      (String.concat ", " knobs);
    exit 2
  end

let print_result (cfg : Common.config) (r : Common.result) =
  let names = if cfg.Common.trace then per_layer else end_to_end in
  let opts = Pascalr.Exec_opts.default in
  let info =
    [
      ("workload", cfg.workload);
      ("seed", string_of_int cfg.seed);
      ("exec_opts.jobs", string_of_int opts.Pascalr.Exec_opts.jobs);
      ("exec_opts.batch_size", string_of_int opts.Pascalr.Exec_opts.batch_size);
      ("exec_opts.use_index", string_of_bool opts.Pascalr.Exec_opts.use_index);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ( "error_rate",
        Printf.sprintf "%.17g"
          (if r.attempted = 0 then 1.
           else float_of_int r.failed /. float_of_int r.attempted) );
    ]
    @ r.info
  in
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) info;
  let metric (name, unit_) =
    let v =
      match List.assoc_opt name r.metrics with
      | Some v when Float.is_finite v -> v
      | Some _ -> failwith ("metric not finite: " ^ name)
      | None -> failwith ("metric not measured: " ^ name)
    in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0 && r.attempted > 0)
    r.attempted r.failed
    (String.concat ", " (List.map metric names))

let () =
  refuse_knobs ();
  (* Turn SIGINT and SIGTERM into an exception, so the cleanup below
     (and the server's) runs before the process exits. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Sys.Break)))
    [ Sys.sigint; Sys.sigterm ];
  let cfg = parse_args () in
  let run =
    match cfg.Common.workload with
    | "quantified" -> Inproc.run Inproc.quantified
    | "join-report" -> Inproc.run Inproc.join_report
    | "serve-oltp" -> Oltp.run
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      usage ()
  in
  Common.mkdir_p cfg.dir;
  let r =
    Fun.protect ~finally:(fun () -> Common.rm_rf cfg.dir) (fun () -> run cfg)
  in
  print_result cfg r;
  exit (if r.failed = 0 && r.attempted > 0 then 0 else 1)
