(* The in-process workloads, `quantified` and `join-report`: a closed
   loop over one Session per database, each operation the text of a
   query, parsed and executed through Session.exec as a user of the
   library would.  See README.md for why each workload exists. *)

open Relalg
open Pascalr

type target = { db : Database.t; session : Session.t; path : string }

type query = {
  text : string;
  target : int;  (* index into the targets *)
  weight : int;  (* occurrences per round of the request stream *)
}

type spec = {
  build : seed:int -> Database.t array * query array;
      (* generate the databases and the query texts (timed as set-up) *)
  expected : seed:int -> Database.t array -> query array -> Common.fingerprint array;
      (* reference answers, computed untimed *)
}

(* --- quantified ---------------------------------------------------- *)

(* The paper's quantified queries, printed from their calculus
   definitions so the text is exactly the query the paper names.
   Running, existential, ships-all-parts and ships-all-red-parts take
   0.3-3 ms; universal and ships-no-red-part go through complement
   joins and take 90-140 ms.  Each round carries the cheap ones 3 to 6
   times and the expensive ones once, so the run collects enough
   samples for a p99 while most of its time is still spent in the two
   negation-bound queries.  The weights are chosen for the statistics
   of a run, not taken from traffic: ships-all-red-parts, the
   third-cheapest, runs 6 times in a round of 18, so the median falls
   in the middle of its samples instead of on the edge between two
   queries, where a small change of either query would move it far. *)
let quantified_queries u s =
  let pp q = Fmt.str "%a" Calculus.pp_query q in
  [|
    ({ text = pp (Workload.Queries.running_query u); target = 0; weight = 3 },
     Workload.Queries.running_query u);
    ({ text = pp (Workload.Queries.existential_query u); target = 0; weight = 3 },
     Workload.Queries.existential_query u);
    ({ text = pp (Workload.Queries.universal_query u); target = 0; weight = 1 },
     Workload.Queries.universal_query u);
    ({ text = pp (Workload.Suppliers.ships_all_parts s); target = 1; weight = 4 },
     Workload.Suppliers.ships_all_parts s);
    ({ text = pp (Workload.Suppliers.ships_all_red_parts s); target = 1; weight = 6 },
     Workload.Suppliers.ships_all_red_parts s);
    ({ text = pp (Workload.Suppliers.ships_no_red_part s); target = 1; weight = 1 },
     Workload.Suppliers.ships_no_red_part s);
  |]

let quantified =
  {
    build =
      (fun ~seed ->
        let u = Workload.University.generate (Workload.University.scaled ~seed 4) in
        let s = Workload.Suppliers.generate (Workload.Suppliers.scaled ~seed 4) in
        ([| u; s |], Array.map fst (quantified_queries u s)));
    expected =
      (fun ~seed:_ dbs queries ->
        let paper = quantified_queries dbs.(0) dbs.(1) in
        Array.mapi
          (fun i q ->
            let db = dbs.(q.target) in
            let parsed = Pascalr_lang.Elaborate.query_of_string db q.text in
            if Session.digest parsed <> Session.digest (snd paper.(i)) then
              failwith ("query text does not parse to the paper query: " ^ q.text);
            Common.fingerprint (Naive_eval.run db parsed))
          queries);
  }

(* --- join-report --------------------------------------------------- *)

(* Negation-free reports over two or three free variables returning
   10^3-10^4 rows at university scale 64: construction and the hash
   joins carry real weight, and the relations exceed the default
   parallel threshold.  (A self-join of employees through timetable
   was left out: at ~170 ms it would set every percentile alone.) *)
let join_texts =
  [|
    "[<e.ename, c.ctitle> OF EACH e IN employees, EACH c IN courses: SOME t \
     IN timetable (t.tenr = e.enr AND t.tcnr = c.cnr)]";
    "[<e.ename, t.tday, c.ctitle> OF EACH e IN employees, EACH t IN \
     timetable, EACH c IN courses: t.tenr = e.enr AND t.tcnr = c.cnr AND \
     c.clevel <= sophomore]";
    "[<e.ename, p.ptitle> OF EACH e IN employees, EACH p IN papers: p.penr = \
     e.enr AND e.estatus = professor]";
    "[<e.ename, p.ptitle> OF EACH e IN employees, EACH p IN papers: p.penr = \
     e.enr AND SOME t IN timetable (t.tenr = e.enr)]";
    "[<c.ctitle, t.troom> OF EACH c IN courses, EACH t IN timetable: t.tcnr = \
     c.cnr AND SOME e IN employees (e.enr = t.tenr AND e.estatus = \
     professor)]";
    "[<e.ename, t.tday> OF EACH e IN employees, EACH t IN timetable: t.tenr = \
     e.enr AND e.estatus = professor]";
  |]

(* Occurrences per round, chosen for the statistics of a run and not
   taken from traffic: the cheaper reports run more often, so a run
   collects enough samples for a p99 while the heavy reports still
   take most of its time, and the ~10 ms report on professors'
   courses runs 5 times in a round of 11, so the median falls in the
   middle of its samples rather than on the edge between two reports. *)
let join_weights = [| 1; 1; 2; 1; 5; 1 |]

(* Naive_eval needs ~10^10 tuple visits per report at scale 64, so the
   reference answers come from these direct hash-join evaluations,
   which [join_expected] first checks against Naive_eval on a scale-1
   database of the same seed. *)
let join_reference db i =
  let rel n = Database.find_relation db n in
  let get n t a = Tuple.get_by_name (Relation.schema (rel n)) t a in
  let by_key n a =
    let h = Hashtbl.create 4096 in
    Relation.iter (fun t -> Hashtbl.replace h (get n t a) t) (rel n);
    h
  in
  let ord = function Value.VEnum (_, o) -> o | _ -> -1 in
  let emp = by_key "employees" "enr" and course = by_key "courses" "cnr" in
  let professor t = ord (get "employees" t "estatus") = 3 in
  let out = Hashtbl.create 4096 in
  let emit row = Hashtbl.replace out row () in
  let each_timetable f =
    Relation.iter
      (fun t ->
        match
          ( Hashtbl.find_opt emp (get "timetable" t "tenr"),
            Hashtbl.find_opt course (get "timetable" t "tcnr") )
        with
        | Some e, Some c -> f t e c
        | _ -> ())
      (rel "timetable")
  in
  let each_paper f =
    Relation.iter
      (fun p ->
        match Hashtbl.find_opt emp (get "papers" p "penr") with
        | Some e -> f p e
        | None -> ())
      (rel "papers")
  in
  let ename e = get "employees" e "ename" and ctitle c = get "courses" c "ctitle" in
  (match i with
  | 0 -> each_timetable (fun _ e c -> emit [| ename e; ctitle c |])
  | 1 ->
    each_timetable (fun t e c ->
        if ord (get "courses" c "clevel") <= 1 then
          emit [| ename e; get "timetable" t "tday"; ctitle c |])
  | 2 ->
    each_paper (fun p e ->
        if professor e then emit [| ename e; get "papers" p "ptitle" |])
  | 3 ->
    let teaches = Hashtbl.create 4096 in
    Relation.iter
      (fun t -> Hashtbl.replace teaches (get "timetable" t "tenr") ())
      (rel "timetable");
    each_paper (fun p e ->
        if Hashtbl.mem teaches (get "employees" e "enr") then
          emit [| ename e; get "papers" p "ptitle" |])
  | 4 ->
    each_timetable (fun t e c ->
        if professor e then emit [| ctitle c; get "timetable" t "troom" |])
  | 5 ->
    each_timetable (fun t e _ ->
        if professor e then emit [| ename e; get "timetable" t "tday" |])
  | _ -> invalid_arg "join_reference");
  Hashtbl.fold (fun row () fp -> Common.add_row fp row) out Common.empty_fp

let join_report =
  {
    build =
      (fun ~seed ->
        let u = Workload.University.generate (Workload.University.scaled ~seed 64) in
        ([| u |], Array.mapi (fun i text -> { text; target = 0; weight = join_weights.(i) }) join_texts));
    expected =
      (fun ~seed dbs queries ->
        let small = Workload.University.generate (Workload.University.scaled ~seed 1) in
        Array.iteri
          (fun i text ->
            let naive =
              Naive_eval.run small (Pascalr_lang.Elaborate.query_of_string small text)
            in
            if Common.fingerprint naive <> join_reference small i
            then failwith ("join reference disagrees with Naive_eval: " ^ text))
          join_texts;
        Array.mapi (fun i _ -> join_reference dbs.(0) i) queries);
  }

(* --- Running ------------------------------------------------------- *)

let setup spec ~dir ~seed =
  Common.mkdir_p dir;
  let t0 = Common.now () in
  let dbs, queries = spec.build ~seed in
  let t1 = Common.now () in
  let targets =
    Array.mapi
      (fun i db ->
        let path = Filename.concat dir (Printf.sprintf "db%d" i) in
        Database.attach_wal db ~path;
        { db; session = Session.create db; path })
      dbs
  in
  let t2 = Common.now () in
  Array.iter
    (fun q ->
      let t = targets.(q.target) in
      ignore
        (Session.exec t.session (Pascalr_lang.Elaborate.query_of_string t.db q.text)
          : Relation.t))
    queries;
  let t3 = Common.now () in
  (t3 -. t0, [| t1 -. t0; t2 -. t1; t3 -. t2 |], targets, queries)

(* The seeded request stream: rounds holding every query [weight]
   times, each round shuffled.  Equal counts per round keep the mix,
   and so the percentiles, the same from seed to seed. *)
let stream ~seed queries =
  let rng = Workload.Prng.create ((seed * 7919) + 17) in
  let round =
    List.concat
      (Array.to_list (Array.mapi (fun i q -> List.init q.weight (fun _ -> i)) queries))
  in
  let pending = ref [] in
  fun () ->
    if !pending = [] then pending := Workload.Prng.shuffle rng round;
    match !pending with
    | i :: rest ->
      pending := rest;
      i
    | [] -> assert false

let round_length queries = Array.fold_left (fun n q -> n + q.weight) 0 queries

let run_phase (cfg : Common.config) ~traced ~deadline ~max_ops ~caches ~q_lat
    targets queries expected next (p : Common.phase) =
  while p.attempted < max_ops && Common.now () < deadline do
    let i = next () in
    let q = queries.(i) in
    let t = targets.(q.target) in
    let req = p.attempted in
    let t0 = Common.now () in
    let result =
      try
        Ok
          (if traced then Layers.read ~req t.db q.text
           else
             Session.exec t.session
               (Pascalr_lang.Elaborate.query_of_string t.db q.text))
      with
      | Sys.Break -> raise Sys.Break
      | e -> Error e
    in
    let dt = Common.now () -. t0 in
    p.attempted <- p.attempted + 1;
    p.busy_s <- p.busy_s +. dt;
    p.window_s <- p.window_s +. dt;
    p.lat_ms <- (dt *. 1000.) :: p.lat_ms;
    p.read_ms <- (dt *. 1000.) :: p.read_ms;
    q_lat.(i) <- (dt *. 1000.) :: q_lat.(i);
    let want = expected.(i) in
    let want =
      if cfg.Common.plant_wrong && i = 0 then { want with Common.rows = want.Common.rows + 1 }
      else want
    in
    let fp =
      match result with
      | Ok rel -> Common.fingerprint rel
      | Error e ->
        Printf.eprintf "perfbench: request %d failed: %s\n%!" req (Printexc.to_string e);
        { Common.empty_fp with rows = -1 }
    in
    if fp = want then p.window_ok <- p.window_ok + 1
    else begin
      p.failed <- p.failed + 1;
      if fp.Common.rows >= 0 then
        Printf.eprintf "perfbench: wrong answer to request %d (%s), want %s: %s\n%!"
          req (Common.fp_to_string fp) (Common.fp_to_string want) q.text
    end;
    (* One window per stream round. *)
    if p.attempted mod round_length queries = 0 then begin
      Common.end_window p;
      Common.add_probe p
    end;
    Buffer.add_string p.answers (Printf.sprintf "%d:%s;" i (Common.fp_to_string fp));
    (* The in-order replay session behind plan_cache.hit_ratio. *)
    match caches with
    | Some caches ->
      ignore
        (Session.prepare caches.(q.target)
           (Pascalr_lang.Elaborate.query_of_string t.db q.text)
          : Prepared.t)
    | None -> ()
  done

let run spec (cfg : Common.config) =
  (* Set up several times, closing each database before the next set-up;
     setup_s is the median and the last set-up is the one measured. *)
  let parts = ref [] in
  let setup_s, targets, queries =
    let times = ref [] and last = ref None in
    for k = 1 to Common.setup_repeats do
      Option.iter (fun (ts, _) -> Array.iter (fun t -> Database.close t.db) ts) !last;
      last := None;
      let s, ps, ts, qs =
        setup spec ~dir:(Filename.concat cfg.dir (Printf.sprintf "setup%d" k)) ~seed:cfg.seed
      in
      times := s :: !times;
      parts := ps :: !parts;
      last := Some (ts, qs)
    done;
    let ts, qs = Option.get !last in
    (Common.median !times, ts, qs)
  in
  let expected = spec.expected ~seed:cfg.seed (Array.map (fun t -> t.db) targets) queries in
  let stream_digest =
    let next = stream ~seed:cfg.seed queries in
    Common.digest_hex
      (String.concat "\n" (List.init 1000 (fun _ -> queries.(next ()).text)))
  in
  let max_ops = if cfg.smoke then round_length queries else max_int in
  let phase_s = if cfg.trace then cfg.seconds /. 2. else cfg.seconds in
  let q_lat = Array.map (fun _ -> []) queries in
  let phase ~traced ~caches p =
    let deadline = if cfg.smoke then infinity else Common.now () +. phase_s in
    run_phase cfg ~traced ~deadline ~max_ops ~caches ~q_lat targets queries
      expected (stream ~seed:cfg.seed queries) p
  in
  (* peak_rss_mb covers the measured operations only: not the garbage
     of the earlier set-ups, the reference answers or the warm-up.  The
     probe's array is allocated first and subtracted. *)
  ignore (Common.probe () : float);
  Gc.compact ();
  let rss_reset = Common.reset_peak_rss "self" in
  let untraced = Common.new_phase () in
  phase ~traced:false ~caches:None untraced;
  let info =
    [
      ("samples", string_of_int untraced.attempted);
      ("peak_rss_reset", string_of_bool rss_reset);
      (* medians of the set-ups' generation, snapshot+WAL and warm-up *)
      ( "setup_parts_ms",
        String.concat " "
          (List.init 3 (fun k ->
               Printf.sprintf "%.1f"
                 (1000. *. Common.median (List.map (fun a -> a.(k)) !parts)))) );
      (* as measured, one median per query in stream order *)
      ( "query_p50_ms",
        String.concat " "
          (Array.to_list
             (Array.map (fun l -> Printf.sprintf "%.3f" (Common.median l)) q_lat)) );
      ("stream_digest", stream_digest);
      ("answer_digest", Common.digest_hex (Buffer.contents untraced.answers));
    ]
  in
  if not cfg.trace then
    let metrics, raw =
      Common.end_to_end ~scaled:true ~setup_s
        ~peak_rss_mb:(Common.peak_rss_mb "self" -. Common.probe_mb)
        untraced
    in
    { Common.attempted = untraced.attempted; failed = untraced.failed; info = info @ raw; metrics }
  else begin
    let traced = Common.new_phase () in
    let caches = Array.map (fun t -> Session.create t.db) targets in
    let gc0 = Common.gc_counts () in
    let tasks0 = Obs.Metrics.counter_value "parallel.tasks" in
    phase ~traced:true ~caches:(Some caches) traced;
    let gc1 = Common.gc_counts () in
    let tasks = Obs.Metrics.counter_value "parallel.tasks" - tasks0 in
    let lookups, hits =
      Array.fold_left
        (fun (l, h) c ->
          let s = Session.cache_stats c in
          ( l + s.Plan_cache.hits + s.Plan_cache.misses + s.Plan_cache.invalidations,
            h + s.Plan_cache.hits ))
        (0, 0) caches
    in
    let recovery_s =
      Array.fold_left
        (fun sum t ->
          sum +. fst (Common.recover ~dir:cfg.dir ~path:t.path ~times:Common.recover_repeats))
        0. targets
    in
    Layers.write_jsonl (Common.spans_file cfg);
    {
      Common.attempted = untraced.attempted + traced.attempted;
      failed = untraced.failed + traced.failed;
      info = info @ [ ("traced_samples", string_of_int traced.attempted) ];
      metrics =
        Layers.metrics ~ops:traced.attempted
          ~untraced_ops_per_s:
            (Common.ops_per_s untraced *. Common.slowdown untraced.probes)
          ~traced_ops_per_s:(Common.ops_per_s traced *. Common.slowdown traced.probes)
          ~gc0 ~gc1 ~tasks
          ~hit_ratio:(if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups)
          ~server_overhead_ms:0. ~wal_bytes_per_write:0. ~write_p50_ms:0.
          ~write_p99_ms:0. ~recovery_s;
    }
  end
