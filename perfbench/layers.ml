(* The traced path: one request replayed through each layer's public
   function, every call wrapped in an Obs.Trace span.

   Reads run parse -> plan -> collection -> combination -> construction
   with the shipped Exec_opts.default, the same sequence Prepared runs
   behind Session.exec; writes run parse -> Session.write.  Each
   operation is one Obs.Trace.collect tree, kept in memory until the
   run ends.  The benchmark's own spans carry the request id and the
   calling domain's allocation inside them (Gc.counters at the same
   boundaries); the engine's own spans nest below them and count as
   part of the enclosing benchmark span.  Counts are taken at the same
   boundaries and summed into [counts]. *)

open Relalg
open Pascalr

type counts = {
  mutable reads : int;
  mutable scans : int;
  mutable structures : int;
  mutable index_structures : int;  (* built by index probe or range *)
  mutable intermediate_tuples : int;
  mutable max_ntuple : int;  (* summed over reads *)
  mutable result_rows : int;
  mutable nlj : int;
  mutable hash : int;
  mutable batched_nlj : int;
}

let counts =
  {
    reads = 0;
    scans = 0;
    structures = 0;
    index_structures = 0;
    intermediate_tuples = 0;
    max_ntuple = 0;
    result_rows = 0;
    nlj = 0;
    hash = 0;
    batched_nlj = 0;
  }

let opts = Exec_opts.default

(* Words allocated so far by this domain.  Gc.counters is exact at
   any point; on OCaml 5, Gc.quick_stat's word counts only move at
   collections, so a short span would read 0. *)
let alloc_now () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* A benchmark span around [f]: an Obs.Trace span tagged with [req]
   and, when [f] returns, with the words it allocated. *)
let span name ~req f =
  Obs.Trace.with_span ~attrs:[ ("req", Obs.Json.Int req) ] name (fun () ->
      let a0 = alloc_now () in
      let r = f () in
      Obs.Trace.add_attr "alloc_words" (Obs.Json.Float (alloc_now () -. a0));
      r)

(* The finished operation trees, newest first. *)
let ops : Obs.Trace.span list ref = ref []

(* Run one operation under its own trace root, called "op". *)
let op ~req f =
  let r, tree = Obs.Trace.collect "op" (fun () -> span "op" ~req f) in
  ops := tree :: !ops;
  r

let read ~req db text =
  op ~req (fun () ->
      let q =
        span "lang.parse" ~req (fun () ->
            Pascalr_lang.Elaborate.query_of_string db text)
      in
      Database.with_read db (fun txn ->
          let view = Database.Txn.view txn in
          Database.reset_counters view;
          let plan =
            span "planning" ~req (fun () ->
                Session.plan_only ~opts view q)
          in
          let coll =
            span "collection" ~req (fun () ->
                let c =
                  Collection.create ?par:(Exec_opts.par opts)
                    ~batch_size:opts.Exec_opts.batch_size
                    ~use_index:opts.Exec_opts.use_index view
                    opts.Exec_opts.strategy plan
                in
                Collection.run c;
                c)
          in
          let outcome =
            span "combination" ~req (fun () ->
                Combination.evaluate_outcome
                  ~join_order:opts.Exec_opts.join_order
                  ?force_join:opts.Exec_opts.force_join coll plan)
          in
          let result =
            span "construction" ~req (fun () ->
                Construction.run view plan outcome.Combination.o_result)
          in
          let c = counts in
          c.reads <- c.reads + 1;
          c.scans <- c.scans + Database.total_scans view;
          List.iter
            (fun (_, path) ->
              c.structures <- c.structures + 1;
              if path <> "scan" then
                c.index_structures <- c.index_structures + 1)
            (Collection.access_paths coll);
          List.iter
            (fun (_, n) -> c.intermediate_tuples <- c.intermediate_tuples + n)
            (Collection.intermediate_sizes coll);
          c.max_ntuple <- c.max_ntuple + outcome.Combination.o_max_ntuple;
          c.result_rows <- c.result_rows + Relation.cardinality result;
          List.iter
            (fun (_, algo) ->
              match algo with
              | "nlj" -> c.nlj <- c.nlj + 1
              | "hash" -> c.hash <- c.hash + 1
              | _ -> c.batched_nlj <- c.batched_nlj + 1)
            outcome.Combination.o_join_algos;
          result))

(* A statement, executed the way the server executes one: inside a
   write transaction of [session], committed through its WAL. *)
let write ~req session text =
  op ~req (fun () ->
      let stmt =
        span "lang.parse" ~req (fun () ->
            Pascalr_lang.Parser.stmt_of_string text)
      in
      span "txn.commit" ~req (fun () ->
          Session.write session (fun txn ->
              Pascalr_lang.Interp.exec (Pascalr_lang.Interp.txn_env txn) stmt)))

(* --- Reduction ----------------------------------------------------- *)

let req_of (sp : Obs.Trace.span) =
  match List.assoc_opt "req" sp.Obs.Trace.sp_attrs with
  | Some (Obs.Json.Int r) -> Some r
  | _ -> None

let alloc_of (sp : Obs.Trace.span) =
  match List.assoc_opt "alloc_words" sp.Obs.Trace.sp_attrs with
  | Some (Obs.Json.Float w) -> w
  | _ -> 0.

(* The benchmark spans nearest below [sp]: its descendants that carry a
   request id, looking through the engine's spans. *)
let rec nearest_ours (sp : Obs.Trace.span) =
  List.concat_map
    (fun c -> if req_of c <> None then [ c ] else nearest_ours c)
    sp.Obs.Trace.sp_children

type totals = {
  mutable count : int;
  mutable self_s : float;  (* duration minus time covered by children *)
  mutable total_s : float;
  mutable self_alloc : float;
}

(* Reduce the recorded trees to per-name totals of the benchmark spans'
   self time and self allocation. *)
let self_times () =
  let tbl = Hashtbl.create 16 in
  let rec visit (sp : Obs.Trace.span) =
    let children = nearest_ours sp in
    if req_of sp <> None then begin
      let t =
        match Hashtbl.find_opt tbl sp.Obs.Trace.sp_name with
        | Some t -> t
        | None ->
          let t = { count = 0; self_s = 0.; total_s = 0.; self_alloc = 0. } in
          Hashtbl.add tbl sp.Obs.Trace.sp_name t;
          t
      in
      let sum f = List.fold_left (fun a c -> a +. f c) 0. children in
      let secs (c : Obs.Trace.span) = c.Obs.Trace.sp_elapsed_ms /. 1000. in
      t.count <- t.count + 1;
      t.total_s <- t.total_s +. secs sp;
      t.self_s <- t.self_s +. (secs sp -. sum secs);
      t.self_alloc <- t.self_alloc +. (alloc_of sp -. sum alloc_of)
    end;
    List.iter visit children
  in
  List.iter (fun root -> List.iter visit (nearest_ours root)) !ops;
  tbl

(* Write every span of every operation, the engine's included, one
   JSON object per line: name, request id, parent line (-1 for a
   root), start and end seconds, and the allocation of benchmark
   spans. *)
let write_jsonl path =
  let oc = open_out path in
  let line = ref 0 in
  let rec emit ~req ~parent (sp : Obs.Trace.span) =
    let me = !line in
    incr line;
    let start = sp.Obs.Trace.sp_start_ms /. 1000. in
    Printf.fprintf oc
      "{\"name\": %S, \"req\": %d, \"parent\": %d, \"start_s\": %.6f, \
       \"end_s\": %.6f, \"alloc_words\": %.0f}\n"
      sp.Obs.Trace.sp_name req parent start
      (start +. (sp.Obs.Trace.sp_elapsed_ms /. 1000.))
      (alloc_of sp);
    List.iter (emit ~req ~parent:me) sp.Obs.Trace.sp_children
  in
  List.iter
    (fun root ->
      List.iter
        (fun sp -> emit ~req:(Option.value (req_of sp) ~default:(-1)) ~parent:(-1) sp)
        root.Obs.Trace.sp_children)
    (List.rev !ops);
  close_out oc

(* The per-layer metrics of a traced phase of [ops] operations, from
   the spans' self times and the counts above.  Layers a workload does
   not reach (the server, the WAL) are passed in as 0. *)
let metrics ~ops ~untraced_ops_per_s ~traced_ops_per_s ~gc0 ~gc1 ~tasks
    ~hit_ratio ~server_overhead_ms ~wal_bytes_per_write ~write_p50_ms
    ~write_p99_ms ~recovery_s =
  let t = self_times () in
  let get n =
    match Hashtbl.find_opt t n with
    | Some x -> x
    | None -> { count = 0; self_s = 0.; total_s = 0.; self_alloc = 0. }
  in
  let div a b = if b = 0. then 0. else a /. b in
  let per_call n scale =
    let x = get n in
    div (x.self_s *. scale) (float_of_int x.count)
  in
  let op_s = (get "op").total_s in
  let share n = div (get n).self_s op_s in
  let alloc n = div (get n).self_alloc (float_of_int (get n).count) in
  let c = counts in
  let reads = float_of_int c.reads in
  let phases = [ "planning"; "collection"; "combination"; "construction" ] in
  [
    ("lang.parse_us", per_call "lang.parse" 1e6);
    ("planning.plan_us", per_call "planning" 1e6);
    ("planning.share", share "planning");
    ("plan_cache.hit_ratio", hit_ratio);
    ("server.overhead_ms", server_overhead_ms);
    ("txn.commit_ms", per_call "txn.commit" 1e3);
    ("wal.bytes_per_write", wal_bytes_per_write);
    ("write_p50_ms", write_p50_ms);
    ("write_p99_ms", write_p99_ms);
    ("recovery_s", recovery_s);
    ("collection.ms_per_op", per_call "collection" 1e3);
    ("collection.share", share "collection");
    ("collection.scans_per_op", div (float_of_int c.scans) reads);
    ("collection.intermediate_tuples", div (float_of_int c.intermediate_tuples) reads);
    ("collection.alloc_words", alloc "collection");
    ("collection.index_path_ratio",
     div (float_of_int c.index_structures) (float_of_int c.structures));
    ("combination.ms_per_op", per_call "combination" 1e3);
    ("combination.share", share "combination");
    ("combination.max_ntuple", div (float_of_int c.max_ntuple) reads);
    ("combination.useful_ratio",
     div (float_of_int c.result_rows) (float_of_int c.max_ntuple));
    ("combination.alloc_words", alloc "combination");
    ("combination.nlj_steps", div (float_of_int c.nlj) reads);
    ("combination.hash_steps", div (float_of_int c.hash) reads);
    ("combination.batched_nlj_steps", div (float_of_int c.batched_nlj) reads);
    ("construction.ms_per_op", per_call "construction" 1e3);
    ("construction.share", share "construction");
    ("construction.us_per_row",
     div ((get "construction").self_s *. 1e6) (float_of_int c.result_rows));
    ("construction.alloc_words", alloc "construction");
    ("parallel.tasks_per_op", div (float_of_int tasks) (float_of_int ops));
    ("gc.minor_words_per_op", div (fst gc1 -. fst gc0) (float_of_int ops));
    ("gc.major_collections", float_of_int (snd gc1 - snd gc0));
    ("trace.op_ms", div (op_s *. 1e3) (float_of_int (get "op").count));
    ("trace.accounted_frac",
     div (List.fold_left (fun s n -> s +. (get n).self_s) 0. phases) op_s);
    ("trace.overhead_frac", 1. -. div traced_ops_per_s untraced_ops_per_s);
  ]
