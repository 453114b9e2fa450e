(* Verification-result cache tests: canonical cone fingerprints (stability
   under construction order, sensitivity to every semantic knob), on-disk
   store correctness (cold = warm over the 50-seed differential net, tamper
   and forgery degrade to misses, DRAT re-check on certified hits),
   concurrent-writer safety, and intra-batch structural dedup. *)

let tmp_store label =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "emmver-vcache-test-%d-%s" (Unix.getpid ()) label)
  in
  (* Stale leftovers from a killed previous run must not pollute us. *)
  ignore (Vcache.clear (Vcache.config ~dir ()));
  dir

let drop_store dir =
  ignore (Vcache.clear (Vcache.config ~dir ()));
  try Unix.rmdir dir with _ -> ()

let options ?(certify = false) ?(max_depth = 8) ?cache_dir () =
  {
    Emmver.default_options with
    Emmver.max_depth;
    certify;
    cache = cache_dir <> None;
    cache_dir;
  }

let conclusion_str (o : Emmver.outcome) =
  Format.asprintf "%a" Emmver.pp_conclusion o.Emmver.conclusion

let sig_of net = Netlist.cone_signature net (Netlist.find_property net "p")

(* {2 Fingerprint stability and sensitivity} *)

(* Two memories used symmetrically plus an XOR cone.  [flip] permutes every
   construction choice that must NOT matter: node-id offsets (padding
   inputs first), memory creation order, XOR argument order. *)
let order_design flip =
  let ctx = Hdl.create () in
  if flip then ignore (Hdl.input ctx "pad" ~width:5);
  let mk name = Hdl.memory ctx ~name ~addr_width:2 ~data_width:2 ~init:Netlist.Zeros in
  let ma, mb =
    if flip then
      let b = mk "mb" in
      let a = mk "ma" in
      (a, b)
    else
      let a = mk "ma" in
      let b = mk "mb" in
      (a, b)
  in
  let wa = Hdl.input ctx "wa" ~width:2 in
  let wd = Hdl.input ctx "wd" ~width:2 in
  let we = Hdl.input_bit ctx "we" in
  Hdl.write_port ctx ma ~addr:wa ~data:wd ~enable:we;
  Hdl.write_port ctx mb ~addr:wa ~data:wd ~enable:(Netlist.not_ we);
  let ra = Hdl.input ctx "ra" ~width:2 in
  let rda = Hdl.read_port ctx ma ~addr:ra ~enable:Netlist.true_ in
  let rdb = Hdl.read_port ctx mb ~addr:ra ~enable:Netlist.true_ in
  let x = if flip then Hdl.xor_v ctx rdb rda else Hdl.xor_v ctx rda rdb in
  Hdl.assert_always ctx "p" (Hdl.eq_const ctx x 0);
  Hdl.netlist ctx

let test_construction_order_invariance () =
  Alcotest.(check string)
    "same cone, permuted construction" (sig_of (order_design false))
    (sig_of (order_design true))

(* One knob per variant; every variant must move the fingerprint. *)
let knob_design ?(target = 0) ?(init = Netlist.Zeros) ?(dw = 2) ?(latch_init = Some 0)
    () =
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:dw ~init in
  let wa = Hdl.input ctx "wa" ~width:2 in
  let wd = Hdl.input ctx "wd" ~width:dw in
  let we = Hdl.input_bit ctx "we" in
  Hdl.write_port ctx mem ~addr:wa ~data:wd ~enable:we;
  let ra = Hdl.input ctx "ra" ~width:2 in
  let rd = Hdl.read_port ctx mem ~addr:ra ~enable:Netlist.true_ in
  let seen = Hdl.reg ctx ~init:latch_init "seen" ~width:1 in
  Hdl.connect ctx seen (Hdl.or_v ctx seen (Hdl.uresize wd ~width:1));
  let viol = [| Netlist.not_ (Hdl.eq_const ctx rd target) |] in
  let bad = Hdl.and_v ctx seen viol in
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.bit_of bad 0));
  Hdl.netlist ctx

let test_fingerprint_sensitivity () =
  let base = sig_of (knob_design ()) in
  let distinct what s =
    if String.equal base s then Alcotest.failf "%s did not change the fingerprint" what
  in
  distinct "gate constant flip" (sig_of (knob_design ~target:1 ()));
  distinct "memory init descriptor" (sig_of (knob_design ~init:Netlist.Arbitrary ()));
  distinct "memory data width" (sig_of (knob_design ~dw:3 ()));
  distinct "latch initial value" (sig_of (knob_design ~latch_init:(Some 1) ()));
  distinct "latch arbitrary init" (sig_of (knob_design ~latch_init:None ()))

let test_key_attrs_sensitivity () =
  let net = knob_design () in
  let key o m =
    match Emmver.cache_key o ~method_:m net ~property:"p" with
    | Some k -> Vcache.Key.to_hex k
    | None -> Alcotest.fail "no key for an existing property"
  in
  let o = options ~cache_dir:"unused" () in
  let base = key o Emmver.Emm_bmc in
  Alcotest.(check bool)
    "method changes the key" false
    (String.equal base (key o Emmver.Explicit_bmc));
  Alcotest.(check bool)
    "depth changes the key" false
    (String.equal base (key (options ~max_depth:9 ~cache_dir:"unused" ()) Emmver.Emm_bmc));
  Alcotest.(check bool)
    "certify does not change the key" true
    (String.equal base (key (options ~certify:true ~cache_dir:"unused" ()) Emmver.Emm_bmc));
  (* The encoder generation is an attribute of Key.make like any other. *)
  let cone = sig_of net in
  let k v = Vcache.Key.to_hex (Vcache.Key.make ~cone ~attrs:[ ("encoder", v) ]) in
  Alcotest.(check bool) "encoder mode changes the key" false (String.equal (k "1") (k "2"));
  Alcotest.(check string)
    "attribute order does not change the key"
    (Vcache.Key.to_hex
       (Vcache.Key.make ~cone ~attrs:[ ("a", "1"); ("b", "2") ]))
    (Vcache.Key.to_hex
       (Vcache.Key.make ~cone ~attrs:[ ("b", "2"); ("a", "1") ]))

let test_unknown_property_has_no_key () =
  let net = knob_design () in
  match Emmver.cache_key (options ~cache_dir:"unused" ()) ~method_:Emmver.Emm_bmc net ~property:"ghost" with
  | None -> ()
  | Some _ -> Alcotest.fail "expected no key for an unknown property"

(* {2 Store correctness} *)

let test_cold_equals_warm_differential () =
  let dir = tmp_store "differential" in
  Fun.protect ~finally:(fun () -> drop_store dir) @@ fun () ->
  let opts = options ~cache_dir:dir () in
  let check label net =
    let cold = Emmver.verify ~options:opts ~method_:Emmver.Emm_bmc net ~property:"p" in
    let warm = Emmver.verify ~options:opts ~method_:Emmver.Emm_bmc net ~property:"p" in
    Alcotest.(check string)
      (Printf.sprintf "%s: warm conclusion = cold" label)
      (conclusion_str cold) (conclusion_str warm);
    (if cold.Emmver.cache <> Emmver.Cache_miss then
       Alcotest.failf "%s: cold run was not a recorded miss" label);
    if warm.Emmver.cache <> Emmver.Cache_hit then
      Alcotest.failf "%s: warm run missed (%s)" label (conclusion_str warm)
  in
  for id = 0 to 49 do
    check (Printf.sprintf "design %d" id) (Diffgen.build (Diffgen.random_cfg id))
  done;
  (* The latch-poor regime: proved-depth-bearing entries must round-trip
     just like falsifications. *)
  for id = 0 to 11 do
    check
      (Printf.sprintf "latch-poor %d" id)
      (Diffgen.build (Diffgen.latch_poor_cfg id))
  done

(* The encoder-generation attribute in action: an entry recorded under the
   previous generation ("1", latch-only loop-free-path distinctness) keys
   differently and must silently miss after the bump — its proved depths
   can be wrong on latch-poor designs, so replaying it would launder an
   over-proof through the cache. *)
let test_pre_bump_entry_misses () =
  let dir = tmp_store "generation" in
  Fun.protect ~finally:(fun () -> drop_store dir) @@ fun () ->
  let net = knob_design () in
  let opts = options ~cache_dir:dir () in
  Alcotest.(check bool)
    "the generation was bumped past \"1\"" false
    (String.equal Emmver.encoding_version "1");
  let key encoder =
    Vcache.Key.make ~cone:(sig_of net)
      ~attrs:[ ("engine", "emm"); ("max_depth", "8"); ("encoder", encoder) ]
  in
  (* The replica attrs above must track the live attribute set, or the
     planted entry below would miss for the wrong reason. *)
  (match Emmver.cache_key opts ~method_:Emmver.Emm_bmc net ~property:"p" with
  | Some k ->
    Alcotest.(check string) "replica key matches the live attrs"
      (Vcache.Key.to_hex k)
      (Vcache.Key.to_hex (key Emmver.encoding_version))
  | None -> Alcotest.fail "no key");
  let cfg = Option.get (Emmver.cache_config opts) in
  Vcache.store cfg (key "1")
    {
      Vcache.e_method = "emm";
      e_verdict = Vcache.Proved { depth = 0; induction = false };
      e_time_s = 0.0;
      e_solve_time_s = 0.0;
      e_model_vars = 0;
      e_model_clauses = 0;
      e_model_latches = 0;
      e_cert = "unchecked";
      e_created = 0.0;
      e_payload = Vcache.No_payload;
    };
  let o = Emmver.verify ~options:opts ~method_:Emmver.Emm_bmc net ~property:"p" in
  if o.Emmver.cache <> Emmver.Cache_miss then
    Alcotest.fail "pre-bump entry was served across the generation bump"

(* A provable design: a never-written zero memory reads zero.  The toggling
   register gives the loop-free-path check state to close over, so the
   proof lands by forward diameter. *)
let provable_design () =
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:2 ~init:Netlist.Zeros in
  let ra = Hdl.input ctx "ra" ~width:2 in
  let rd = Hdl.read_port ctx mem ~addr:ra ~enable:Netlist.true_ in
  let tick = Hdl.reg ctx "tick" ~width:1 in
  Hdl.connect ctx tick (Hdl.not_v tick);
  Hdl.assert_always ctx "p" (Hdl.eq_const ctx rd 0);
  Hdl.netlist ctx

let test_certified_hit_rechecks_drat () =
  let dir = tmp_store "drat" in
  Fun.protect ~finally:(fun () -> drop_store dir) @@ fun () ->
  let net = provable_design () in
  let opts = options ~certify:true ~cache_dir:dir () in
  let cold = Emmver.verify ~options:opts ~method_:Emmver.Emm_bmc net ~property:"p" in
  (match cold.Emmver.certificate with
  | Cert.Certified Cert.Drat_checked -> ()
  | c -> Alcotest.failf "cold certificate: %s" (Cert.label c));
  let warm = Emmver.verify ~options:opts ~method_:Emmver.Emm_bmc net ~property:"p" in
  Alcotest.(check string) "warm conclusion" (conclusion_str cold) (conclusion_str warm);
  (if warm.Emmver.cache <> Emmver.Cache_hit then Alcotest.fail "expected a cache hit");
  (match warm.Emmver.certificate with
  | Cert.Certified Cert.Drat_checked -> ()
  | c -> Alcotest.failf "warm hit not re-certified: %s" (Cert.label c));
  if warm.Emmver.proof_steps <= 0 then
    Alcotest.fail "re-check replayed no proof steps";
  (* An entry recorded without evidence cannot satisfy --certify: honest
     re-solve, not a trusting hit. *)
  let dir2 = tmp_store "drat-nopayload" in
  Fun.protect ~finally:(fun () -> drop_store dir2) @@ fun () ->
  let plain = options ~cache_dir:dir2 () in
  let _ = Emmver.verify ~options:plain ~method_:Emmver.Emm_bmc net ~property:"p" in
  let demand = options ~certify:true ~cache_dir:dir2 () in
  let o = Emmver.verify ~options:demand ~method_:Emmver.Emm_bmc net ~property:"p" in
  (if o.Emmver.cache <> Emmver.Cache_miss then
     Alcotest.fail "payload-free entry must not satisfy a certify demand");
  match o.Emmver.certificate with
  | Cert.Certified Cert.Drat_checked -> ()
  | c -> Alcotest.failf "re-solve not certified: %s" (Cert.label c)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

(* The stored variable count is a claim, not a size: the checker sizes its
   arrays from the literals it is given.  A checksum-valid entry claiming
   2^24 variables must re-check as cheaply as the honest one. *)
let test_claimed_num_vars_is_not_trusted () =
  let dir = tmp_store "numvars" in
  Fun.protect ~finally:(fun () -> drop_store dir) @@ fun () ->
  let net = provable_design () in
  let opts = options ~certify:true ~cache_dir:dir () in
  let _ = Emmver.verify ~options:opts ~method_:Emmver.Emm_bmc net ~property:"p" in
  let key = Option.get (Emmver.cache_key opts ~method_:Emmver.Emm_bmc net ~property:"p") in
  let path = Filename.concat dir (Vcache.Key.to_hex key ^ ".json") in
  let data = read_bytes path in
  let nl = String.index data '\n' in
  let body = String.sub data (nl + 1) (String.length data - nl - 1) in
  let field = {|"num_vars":|} in
  let rec find i =
    if i + String.length field > String.length body then
      Alcotest.fail "stored entry has no DRAT payload"
    else if String.sub body i (String.length field) = field then i + String.length field
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while body.[!stop] >= '0' && body.[!stop] <= '9' do incr stop done;
  let body =
    String.sub body 0 start ^ "16777216"
    ^ String.sub body !stop (String.length body - !stop)
  in
  write_bytes path
    ("EMMVER-VCACHE 1 " ^ Digest.to_hex (Digest.string body) ^ "\n" ^ body);
  let before = Gc.allocated_bytes () in
  let warm = Emmver.verify ~options:opts ~method_:Emmver.Emm_bmc net ~property:"p" in
  let allocated = Gc.allocated_bytes () -. before in
  (if warm.Emmver.cache <> Emmver.Cache_hit then Alcotest.fail "expected a cache hit");
  (match warm.Emmver.certificate with
  | Cert.Certified Cert.Drat_checked -> ()
  | c -> Alcotest.failf "hit not DRAT-checked: %s" (Cert.label c));
  if allocated >= 50e6 then
    Alcotest.failf "re-check allocated %.0f MB for a tiny proof" (allocated /. 1e6)

(* A memory that latches any nonzero write and a property that a read can
   never return 3: falsifiable, so the cache entry carries a trace. *)
let falsifiable_design () =
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:2 ~init:Netlist.Arbitrary in
  let wa = Hdl.input ctx "wa" ~width:2 in
  let wd = Hdl.input ctx "wd" ~width:2 in
  Hdl.write_port ctx mem ~addr:wa ~data:wd ~enable:Netlist.true_;
  let ra = Hdl.input ctx "ra" ~width:2 in
  let rd = Hdl.read_port ctx mem ~addr:ra ~enable:Netlist.true_ in
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx rd 3));
  Hdl.netlist ctx

let test_checksum_tamper_is_a_miss () =
  let dir = tmp_store "tamper" in
  Fun.protect ~finally:(fun () -> drop_store dir) @@ fun () ->
  let net = falsifiable_design () in
  let opts = options ~cache_dir:dir () in
  let cold = Emmver.verify ~options:opts ~method_:Emmver.Emm_bmc net ~property:"p" in
  let key =
    match Emmver.cache_key opts ~method_:Emmver.Emm_bmc net ~property:"p" with
    | Some k -> k
    | None -> Alcotest.fail "no key"
  in
  let path = Filename.concat dir (Vcache.Key.to_hex key ^ ".json") in
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* Flip one byte in the middle of the body. *)
  let bytes = Bytes.of_string data in
  let mid = Bytes.length bytes / 2 in
  Bytes.set bytes mid (if Bytes.get bytes mid = 'x' then 'y' else 'x');
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc;
  let cfg = Option.get (Emmver.cache_config opts) in
  (match Vcache.load cfg key with
  | None -> ()
  | Some _ -> Alcotest.fail "tampered entry loaded");
  let again = Emmver.verify ~options:opts ~method_:Emmver.Emm_bmc net ~property:"p" in
  (if again.Emmver.cache <> Emmver.Cache_miss then
     Alcotest.fail "tampered entry must be a miss");
  Alcotest.(check string) "re-solved verdict" (conclusion_str cold) (conclusion_str again)

let test_forged_trace_is_stale () =
  let dir = tmp_store "forged" in
  Fun.protect ~finally:(fun () -> drop_store dir) @@ fun () ->
  let net = falsifiable_design () in
  let opts = options ~cache_dir:dir () in
  let key =
    match Emmver.cache_key opts ~method_:Emmver.Emm_bmc net ~property:"p" with
    | Some k -> k
    | None -> Alcotest.fail "no key"
  in
  let cfg = Option.get (Emmver.cache_config opts) in
  (* A checksum-valid entry whose trace is nonsense: the replay gate must
     reject it and the engine must solve fresh. *)
  let forged : Bmc.Trace.t =
    {
      Bmc.Trace.property = "p";
      depth = 0;
      inputs = [| [ ("no_such_input", true) ] |];
      latch0 = [];
      mem_init = [];
      watch = [];
    }
  in
  Vcache.store cfg key
    {
      Vcache.e_method = "emm";
      e_verdict = Vcache.Falsified { depth = 0 };
      e_time_s = 0.0;
      e_solve_time_s = 0.0;
      e_model_vars = 0;
      e_model_clauses = 0;
      e_model_latches = 0;
      e_cert = "unchecked";
      e_created = 0.0;
      e_payload = Vcache.Trace_payload forged;
    };
  let o = Emmver.verify ~options:opts ~method_:Emmver.Emm_bmc net ~property:"p" in
  (if o.Emmver.cache <> Emmver.Cache_miss then
     Alcotest.fail "forged trace must not be served");
  (match o.Emmver.conclusion with
  | Emmver.Falsified { genuine = Some true; _ } -> ()
  | c ->
    Alcotest.failf "expected genuine falsification, got %s"
      (Format.asprintf "%a" Emmver.pp_conclusion c));
  (* The stale entry was evicted and replaced by the honest one. *)
  match Vcache.load cfg key with
  | Some { Vcache.e_payload = Vcache.Trace_payload t; _ } ->
    Alcotest.(check bool) "replaced trace replays" true (Bmc.Trace.replay net t)
  | _ -> Alcotest.fail "honest entry not recorded after eviction"

let test_stats_gc_clear () =
  let dir = tmp_store "admin" in
  Fun.protect ~finally:(fun () -> drop_store dir) @@ fun () ->
  let cfg = Vcache.config ~dir () in
  let entry v =
    {
      Vcache.e_method = "emm";
      e_verdict = v;
      e_time_s = 1.0;
      e_solve_time_s = 0.5;
      e_model_vars = 10;
      e_model_clauses = 20;
      e_model_latches = 3;
      e_cert = "unchecked";
      e_created = 0.0;
      e_payload = Vcache.No_payload;
    }
  in
  let key i = Vcache.Key.make ~cone:"c" ~attrs:[ ("i", string_of_int i) ] in
  Vcache.store cfg (key 0) (entry (Vcache.Proved { depth = 3; induction = true }));
  Unix.sleepf 0.05;
  Vcache.store cfg (key 1) (entry (Vcache.Falsified { depth = 2 }));
  Unix.sleepf 0.05;
  Vcache.store cfg (key 2) (entry (Vcache.Bounded { depth = 8; reason = "bound" }));
  let s = Vcache.stats cfg in
  Alcotest.(check int) "entries" 3 s.Vcache.entries;
  Alcotest.(check int) "proved" 1 s.Vcache.proved;
  Alcotest.(check int) "falsified" 1 s.Vcache.falsified;
  Alcotest.(check int) "bounded" 1 s.Vcache.bounded;
  (* Round-trip of one entry. *)
  (match Vcache.load cfg (key 1) with
  | Some e ->
    Alcotest.(check bool) "verdict round-trips" true
      (e.Vcache.e_verdict = Vcache.Falsified { depth = 2 });
    Alcotest.(check int) "model vars round-trip" 10 e.Vcache.e_model_vars
  | None -> Alcotest.fail "stored entry did not load");
  (* GC drops exactly the oldest entry when one entry's bytes must go. *)
  let deleted, kept = Vcache.gc cfg ~max_bytes:(s.Vcache.bytes - 1) in
  Alcotest.(check int) "gc deleted" 1 deleted;
  Alcotest.(check int) "gc kept" 2 kept;
  (match Vcache.load cfg (key 0) with
  | None -> ()
  | Some _ -> Alcotest.fail "gc kept the oldest entry");
  (if Vcache.load cfg (key 2) = None then Alcotest.fail "gc dropped the newest entry");
  Alcotest.(check int) "clear" 2 (Vcache.clear cfg);
  Alcotest.(check int) "empty after clear" 0 (Vcache.stats cfg).Vcache.entries

(* The daemon-grade watermarks: age and size evict by last use, and a
   [load] hit refreshes an entry's lease so hot entries survive. *)
let test_maintain_watermarks () =
  let dir = tmp_store "maintain" in
  Fun.protect ~finally:(fun () -> drop_store dir) @@ fun () ->
  let cfg = Vcache.config ~dir () in
  let entry =
    {
      Vcache.e_method = "emm";
      e_verdict = Vcache.Proved { depth = 3; induction = true };
      e_time_s = 1.0;
      e_solve_time_s = 0.5;
      e_model_vars = 10;
      e_model_clauses = 20;
      e_model_latches = 3;
      e_cert = "unchecked";
      e_created = 0.0;
      e_payload = Vcache.No_payload;
    }
  in
  let key i = Vcache.Key.make ~cone:"c" ~attrs:[ ("i", string_of_int i) ] in
  let path i = Filename.concat dir (Vcache.Key.to_hex (key i) ^ ".json") in
  let set_age i seconds =
    let t = Unix.gettimeofday () -. seconds in
    Unix.utimes (path i) t t
  in
  List.iter (fun i -> Vcache.store cfg (key i) entry) [ 0; 1; 2 ];
  (* No watermarks: nothing moves. *)
  let r = Vcache.maintain cfg (Vcache.gc_policy ()) in
  Alcotest.(check int) "no policy evicts nothing"
    0
    (r.Vcache.evicted_age + r.Vcache.evicted_size);
  Alcotest.(check int) "all kept" 3 r.Vcache.kept;
  (* Age watermark: only the entry unused for 100s falls. *)
  set_age 0 100.0;
  let r = Vcache.maintain cfg (Vcache.gc_policy ~max_age_s:50.0 ()) in
  Alcotest.(check int) "age watermark evicts the stale entry" 1 r.Vcache.evicted_age;
  Alcotest.(check int) "age watermark keeps the rest" 2 r.Vcache.kept;
  Alcotest.(check bool) "stale entry gone" true (Vcache.load cfg (key 0) = None);
  (* Size watermark is LRU, and a hit refreshes the lease: make key 1 the
     older of the two survivors, then load it (refresh) — the watermark
     must now evict key 2 instead. *)
  set_age 1 30.0;
  set_age 2 20.0;
  (match Vcache.load cfg (key 1) with
  | Some _ -> ()
  | None -> Alcotest.fail "expected key 1 to load");
  let bytes_of_one = (Unix.stat (path 2)).Unix.st_size in
  let r = Vcache.maintain cfg (Vcache.gc_policy ~max_bytes:bytes_of_one ()) in
  Alcotest.(check int) "size watermark evicts one" 1 r.Vcache.evicted_size;
  Alcotest.(check int) "size watermark keeps one" 1 r.Vcache.kept;
  Alcotest.(check bool) "hit-refreshed entry survives" true
    (Vcache.load cfg (key 1) <> None);
  Alcotest.(check bool) "cold entry evicted" true (Vcache.load cfg (key 2) = None);
  Alcotest.(check int) "kept bytes accounted" bytes_of_one r.Vcache.kept_bytes

(* Never-hit entries fall before ever-hit ones, even when the hot entry is
   the oldest by mtime: an entry that earned a hit has proven its worth,
   one that never did is the cheapest to lose. *)
let test_hit_aware_eviction () =
  let dir = tmp_store "hitaware" in
  Fun.protect ~finally:(fun () -> drop_store dir) @@ fun () ->
  let cfg = Vcache.config ~dir () in
  let entry =
    {
      Vcache.e_method = "emm";
      e_verdict = Vcache.Proved { depth = 3; induction = true };
      e_time_s = 1.0;
      e_solve_time_s = 0.5;
      e_model_vars = 10;
      e_model_clauses = 20;
      e_model_latches = 3;
      e_cert = "unchecked";
      e_created = 0.0;
      e_payload = Vcache.No_payload;
    }
  in
  let key i = Vcache.Key.make ~cone:"c" ~attrs:[ ("i", string_of_int i) ] in
  let path i = Filename.concat dir (Vcache.Key.to_hex (key i) ^ ".json") in
  let set_age i seconds =
    let t = Unix.gettimeofday () -. seconds in
    Unix.utimes (path i) t t
  in
  List.iter (fun i -> Vcache.store cfg (key i) entry) [ 0; 1; 2 ];
  (match Vcache.load cfg (key 0) with
  | Some _ -> ()
  | None -> Alcotest.fail "expected key 0 to load");
  (* Re-age the hot entry to be the oldest: pure LRU would evict it first. *)
  set_age 0 100.0;
  set_age 1 50.0;
  set_age 2 20.0;
  let bytes_of_one = (Unix.stat (path 2)).Unix.st_size in
  let r = Vcache.maintain cfg (Vcache.gc_policy ~max_bytes:bytes_of_one ()) in
  Alcotest.(check int) "two evicted by size" 2 r.Vcache.evicted_size;
  Alcotest.(check int) "both evictees were never-hit" 2 r.Vcache.evicted_cold;
  Alcotest.(check int) "one kept" 1 r.Vcache.kept;
  Alcotest.(check bool) "the hot (oldest) entry survives" true
    (Vcache.load cfg (key 0) <> None);
  Alcotest.(check bool) "cold entries gone" true
    (Vcache.load cfg (key 1) = None && Vcache.load cfg (key 2) = None)

let test_default_dir_env_override () =
  let saved = Sys.getenv_opt "EMMVER_CACHE_DIR" in
  Unix.putenv "EMMVER_CACHE_DIR" "/tmp/emmver-env-test";
  let d = Vcache.default_dir () in
  Unix.putenv "EMMVER_CACHE_DIR" (Option.value saved ~default:"");
  Alcotest.(check string) "env override" "/tmp/emmver-env-test" d

(* {2 Concurrent writers} *)

let test_same_key_racing_writers () =
  let dir = tmp_store "race" in
  Fun.protect ~finally:(fun () -> drop_store dir) @@ fun () ->
  let net = falsifiable_design () in
  let opts = options ~cache_dir:dir () in
  (* Eight forked workers all solve the same cold problem and race to write
     the same key; atomic rename means the survivor is one complete entry. *)
  let results =
    Parallel.map ~jobs:4
      ~f:(fun () ->
        conclusion_str (Emmver.verify ~options:opts ~method_:Emmver.Emm_bmc net ~property:"p"))
      (List.init 8 (fun _ -> ()))
  in
  let conclusions =
    List.map (function Ok c -> c | Error f -> Parallel.failure_message f) results
  in
  (match conclusions with
  | c :: rest -> List.iter (Alcotest.(check string) "racing workers agree" c) rest
  | [] -> ());
  let cfg = Option.get (Emmver.cache_config opts) in
  Alcotest.(check int) "one entry" 1 (Vcache.stats cfg).Vcache.entries;
  let warm = Emmver.verify ~options:opts ~method_:Emmver.Emm_bmc net ~property:"p" in
  (if warm.Emmver.cache <> Emmver.Cache_hit then
     Alcotest.fail "surviving entry is not servable");
  Alcotest.(check string) "warm agrees" (List.hd conclusions) (conclusion_str warm)

let test_verify_many_shared_store () =
  let dir = tmp_store "pool" in
  Fun.protect ~finally:(fun () -> drop_store dir) @@ fun () ->
  let net = Designs.Multiport.build Designs.Multiport.default_config in
  let props = List.map fst (Netlist.properties net) in
  let opts = options ~max_depth:6 ~cache_dir:dir () in
  let cold = Emmver.verify_many ~options:opts ~jobs:4 ~method_:Emmver.Emm_bmc net ~properties:props in
  let warm = Emmver.verify_many ~options:opts ~jobs:4 ~method_:Emmver.Emm_bmc net ~properties:props in
  List.iter2
    (fun (p, c) (p', w) ->
      Alcotest.(check string) "slot order" p p';
      Alcotest.(check string) (p ^ " conclusion") (conclusion_str c) (conclusion_str w);
      if w.Emmver.cache = Emmver.Cache_miss || w.Emmver.cache = Emmver.Cache_off then
        Alcotest.failf "%s: warm run re-solved" p)
    cold warm;
  (* Every file the forked workers wrote parses. *)
  let cfg = Option.get (Emmver.cache_config opts) in
  let s = Vcache.stats cfg in
  Alcotest.(check bool) "store populated" true (s.Vcache.entries > 0);
  let on_disk =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.length
  in
  Alcotest.(check int) "no unparsable files" on_disk s.Vcache.entries

(* {2 Intra-batch dedup} *)

(* Two isomorphic-but-distinct cones: the same usage pattern over two
   different memories, sharing the address inputs.  Both properties are
   falsifiable (an arbitrary initial cell can already hold 3). *)
let twin_design () =
  let ctx = Hdl.create () in
  let mk name =
    Hdl.memory ctx ~name ~addr_width:2 ~data_width:2 ~init:Netlist.Arbitrary
  in
  let ma = mk "ma" in
  let mb = mk "mb" in
  let wa = Hdl.input ctx "wa" ~width:2 in
  let wd = Hdl.input ctx "wd" ~width:2 in
  Hdl.write_port ctx ma ~addr:wa ~data:wd ~enable:Netlist.true_;
  Hdl.write_port ctx mb ~addr:wa ~data:wd ~enable:Netlist.true_;
  let ra = Hdl.input ctx "ra" ~width:2 in
  let rda = Hdl.read_port ctx ma ~addr:ra ~enable:Netlist.true_ in
  let rdb = Hdl.read_port ctx mb ~addr:ra ~enable:Netlist.true_ in
  let prop rd = Netlist.not_ (Hdl.eq_const ctx rd 3) in
  Hdl.assert_always ctx "pa" (prop rda);
  (* Same signal under a second name: the strongest dedup case. *)
  Hdl.assert_always ctx "pa2" (prop rda);
  Hdl.assert_always ctx "pb" (prop rdb);
  Hdl.netlist ctx

let test_dedup_transfers_verdict () =
  let net = twin_design () in
  Alcotest.(check string)
    "twin cones are isomorphic"
    (Netlist.cone_signature net (Netlist.find_property net "pa"))
    (Netlist.cone_signature net (Netlist.find_property net "pb"));
  let opts = options () in
  (* Cache off: dedup must work on its own. *)
  let batch =
    Emmver.verify_many ~options:opts ~method_:Emmver.Emm_bmc net
      ~properties:[ "pa"; "pa2"; "pb" ]
  in
  let oa = List.assoc "pa" batch in
  let oa2 = List.assoc "pa2" batch in
  let ob = List.assoc "pb" batch in
  (if oa.Emmver.cache = Emmver.Cache_dedup then
     Alcotest.fail "representative must be solved, not deduplicated");
  (if oa2.Emmver.cache <> Emmver.Cache_dedup || ob.Emmver.cache <> Emmver.Cache_dedup
   then Alcotest.fail "structural duplicates were not deduplicated");
  List.iter
    (fun p ->
      let solo =
        Emmver.verify ~options:opts ~method_:Emmver.Emm_bmc net ~property:p
      in
      Alcotest.(check string)
        (p ^ ": dedup conclusion = individual verify")
        (conclusion_str solo)
        (conclusion_str (List.assoc p batch)))
    [ "pa"; "pa2"; "pb" ];
  (* Same-signal duplicate: the representative's trace retargets and
     replays on the duplicate property. *)
  (match oa2.Emmver.conclusion with
  | Emmver.Falsified { trace = Some t; genuine = Some true; _ } ->
    Alcotest.(check string) "trace retargeted" "pa2" t.Bmc.Trace.property;
    Alcotest.(check bool) "retargeted trace replays" true (Bmc.Trace.replay net t)
  | c ->
    Alcotest.failf "same-signal duplicate: expected a replayed counterexample, got %s"
      (Format.asprintf "%a" Emmver.pp_conclusion c));
  (* Cross-memory twin: the witness names memory "ma", which does not
     transfer to "mb" — the verdict carries over, the stale trace must not. *)
  match ob.Emmver.conclusion with
  | Emmver.Falsified { trace = None; genuine = Some true; _ } -> ()
  | Emmver.Falsified { trace = Some t; genuine = Some true; _ } ->
    Alcotest.(check bool) "kept twin trace replays" true (Bmc.Trace.replay net t)
  | c ->
    Alcotest.failf "cross-memory twin: expected a genuine falsification, got %s"
      (Format.asprintf "%a" Emmver.pp_conclusion c)

let test_dedup_consistent_across_jobs () =
  let net = twin_design () in
  let opts = options () in
  let seq =
    Emmver.verify_many ~options:opts ~method_:Emmver.Emm_bmc net ~properties:[ "pa"; "pb" ]
  in
  let par =
    Emmver.verify_many ~options:opts ~jobs:2 ~method_:Emmver.Emm_bmc net
      ~properties:[ "pa"; "pb" ]
  in
  List.iter2
    (fun (p, a) (p', b) ->
      Alcotest.(check string) "order" p p';
      Alcotest.(check string) (p ^ " jobs-invariant") (conclusion_str a) (conclusion_str b))
    seq par

let test_certify_disables_dedup () =
  let net = twin_design () in
  let opts = options ~certify:true () in
  let batch =
    Emmver.verify_many ~options:opts ~method_:Emmver.Emm_bmc net ~properties:[ "pa"; "pb" ]
  in
  List.iter
    (fun (p, o) ->
      (if o.Emmver.cache = Emmver.Cache_dedup then
         Alcotest.failf "%s deduplicated under certify" p);
      match o.Emmver.certificate with
      | Cert.Certified _ -> ()
      | c -> Alcotest.failf "%s not certified: %s" p (Cert.label c))
    batch

(* {2 Incremental re-verification} *)

let test_verify_delta_classification () =
  let dir = tmp_store "delta" in
  Fun.protect ~finally:(fun () -> drop_store dir) @@ fun () ->
  let before = knob_design () in
  let after = knob_design ~target:1 () in
  let opts = options ~cache_dir:dir () in
  (* Warm the store on the old design. *)
  let _ = Emmver.verify ~options:opts ~method_:Emmver.Emm_bmc before ~property:"p" in
  (* Unchanged design: served from the old run's entry. *)
  (match
     Emmver.verify_delta ~options:opts ~method_:Emmver.Emm_bmc ~before
       (knob_design ()) ~properties:[ "p" ]
   with
  | [ ("p", Emmver.Delta_unchanged, o) ] ->
    if o.Emmver.cache <> Emmver.Cache_hit then
      Alcotest.fail "unchanged cone did not hit the warm store"
  | _ -> Alcotest.fail "expected one unchanged property");
  (* Edited design: flagged changed, solved fresh. *)
  match
    Emmver.verify_delta ~options:opts ~method_:Emmver.Emm_bmc ~before after
      ~properties:[ "p" ]
  with
  | [ ("p", Emmver.Delta_changed, o) ] ->
    if o.Emmver.cache <> Emmver.Cache_miss then
      Alcotest.fail "changed cone must be re-verified"
  | _ -> Alcotest.fail "expected one changed property"

(* {2 On-disk format goldens}

   Two entries with fixed timestamps, compared byte for byte with the
   files the store writes: a certified proof with a small DRAT payload (a
   deletion step, an empty and a non-empty obligation cube) and a
   counterexample whose names need JSON escaping.  The DRAT entry is also
   stored under a payload limit equal to its CNF plus proof text (kept)
   and one byte short of it (dropped). *)

let glit v s = Satsolver.Lit.of_var v s

let golden_drat_entry =
  {
    Vcache.e_method = "emm";
    e_verdict = Vcache.Proved { depth = 2; induction = true };
    e_time_s = 1.5;
    e_solve_time_s = 0.25;
    e_model_vars = 3;
    e_model_clauses = 4;
    e_model_latches = 1;
    e_cert = "drat-checked";
    e_created = 1700000000.125;
    e_payload =
      Vcache.Drat_payload
        {
          Bmc.Engine.ca_num_vars = 3;
          ca_original =
            [
              [ glit 0 true; glit 1 true ];
              [ glit 0 true; glit 1 false ];
              [ glit 0 false; glit 2 true ];
              [ glit 0 false; glit 2 false ];
            ];
          ca_proof =
            [
              Cert.Drat.Padd [ glit 0 true ];
              Cert.Drat.Pdel [ glit 0 true; glit 1 true ];
              Cert.Drat.Padd [];
            ];
          ca_obligations = [ []; [ glit 2 false; glit 0 true ] ];
        };
  }

(* The DIMACS text of the CNF and the proof above: the quantity the
   payload limit is measured against. *)
let golden_drat_payload_bytes =
  String.length "1 2 0\n1 -2 0\n-1 3 0\n-1 -3 0\n"
  + String.length "1 0\nd 1 2 0\n0\n"

let golden_trace_entry =
  {
    Vcache.e_method = "emm-falsify";
    e_verdict = Vcache.Falsified { depth = 1 };
    e_time_s = 0.0625;
    e_solve_time_s = 0.03125;
    e_model_vars = 42;
    e_model_clauses = 97;
    e_model_latches = 2;
    e_cert = "trace-replayed";
    e_created = 1700000001.5;
    e_payload =
      Vcache.Trace_payload
        {
          Bmc.Trace.property = "p \"quoted\" \\ tab\there";
          depth = 1;
          inputs =
            [|
              [ ("wa[0]", true); ("wd\n1", false) ];
              [ ("wa[0]", false); ("ctl\001x", true) ];
            |];
          latch0 = [ ("cnt[1]", true) ];
          mem_init = [ ("m", [ (0, 3); (2, 1) ]); ("empty", []) ];
          watch =
            [
              {
                Bmc.Trace.w_name = "m.r0.data[1]";
                w_signal = Netlist.signal_of_node 17 true;
                w_enable = Some (Netlist.signal_of_node 5 false);
                w_values = [| true; false |];
              };
              {
                Bmc.Trace.w_name = "m.w0.addr\r[0]";
                w_signal = Netlist.signal_of_node 9 false;
                w_enable = None;
                w_values = [| false; true |];
              };
            ];
        };
  }

let golden_drat = {|EMMVER-VCACHE 1 50c1ec64d07657407ca6fbe61d033f72
{"version":1,"method":"emm","verdict":"proved","depth":2,"induction":true,"time_s":1.5,"solve_time_s":0.25,"model_vars":3,"model_clauses":4,"model_latches":1,"cert":"drat-checked","created":1700000000.125,"payload":"drat","drat":{"num_vars":3,"cnf":"1 2 0\n1 -2 0\n-1 3 0\n-1 -3 0\n","proof":"1 0\nd 1 2 0\n0\n","obligations":"0\n-3 1 0\n"}}|}

let golden_drat_dropped = {|EMMVER-VCACHE 1 767dbc56b43055d1e03882508f141490
{"version":1,"method":"emm","verdict":"proved","depth":2,"induction":true,"time_s":1.5,"solve_time_s":0.25,"model_vars":3,"model_clauses":4,"model_latches":1,"cert":"drat-checked","created":1700000000.125,"payload":"none"}|}

let golden_trace = {|EMMVER-VCACHE 1 5d7d3b0cfb898da2fcf8f995d46c3bda
{"version":1,"method":"emm-falsify","verdict":"falsified","depth":1,"time_s":0.0625,"solve_time_s":0.03125,"model_vars":42,"model_clauses":97,"model_latches":2,"cert":"trace-replayed","created":1700000001.5,"payload":"trace","trace":{"property":"p \"quoted\" \\ tab\there","depth":1,"inputs":[[["wa[0]",true],["wd\n1",false]],[["wa[0]",false],["ctl\u0001x",true]]],"latch0":[["cnt[1]",true]],"mem_init":[["m",[[0,3],[2,1]]],["empty",[]]],"watch":[{"name":"m.r0.data[1]","signal":35,"enable":10,"values":"10"},{"name":"m.w0.addr\r[0]","signal":18,"enable":-1,"values":"01"}]}}|}

let test_on_disk_goldens () =
  let dir = tmp_store "golden" in
  Fun.protect ~finally:(fun () -> drop_store dir) @@ fun () ->
  let stored_as ?payload_limit_bytes name entry ~expect golden =
    let cfg = Vcache.config ~dir ?payload_limit_bytes () in
    let key = Vcache.Key.make ~cone:"golden" ~attrs:[ ("entry", name) ] in
    Vcache.store cfg key entry;
    Alcotest.(check string)
      (name ^ ": bytes on disk") golden
      (read_bytes (Filename.concat dir (Vcache.Key.to_hex key ^ ".json")));
    Alcotest.(check bool) (name ^ ": loads back") true (Vcache.load cfg key = Some expect)
  in
  stored_as "drat" golden_drat_entry ~expect:golden_drat_entry golden_drat;
  stored_as "trace" golden_trace_entry ~expect:golden_trace_entry golden_trace;
  stored_as "drat-exact" golden_drat_entry ~expect:golden_drat_entry
    ~payload_limit_bytes:golden_drat_payload_bytes golden_drat;
  stored_as "drat-dropped" golden_drat_entry
    ~expect:{ golden_drat_entry with Vcache.e_payload = Vcache.No_payload }
    ~payload_limit_bytes:(golden_drat_payload_bytes - 1)
    golden_drat_dropped

let () =
  Alcotest.run "vcache"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "construction-order invariance" `Quick
            test_construction_order_invariance;
          Alcotest.test_case "semantic knobs move the fingerprint" `Quick
            test_fingerprint_sensitivity;
          Alcotest.test_case "method/depth/encoder move the key" `Quick
            test_key_attrs_sensitivity;
          Alcotest.test_case "unknown property has no key" `Quick
            test_unknown_property_has_no_key;
        ] );
      ( "store",
        [
          Alcotest.test_case "cold = warm over 50 seeded designs" `Slow
            test_cold_equals_warm_differential;
          Alcotest.test_case "pre-bump encoder-generation entry misses" `Quick
            test_pre_bump_entry_misses;
          Alcotest.test_case "certified hit re-checks the DRAT evidence" `Quick
            test_certified_hit_rechecks_drat;
          Alcotest.test_case "claimed num_vars does not size the re-check" `Quick
            test_claimed_num_vars_is_not_trusted;
          Alcotest.test_case "on-disk bytes match the goldens" `Quick
            test_on_disk_goldens;
          Alcotest.test_case "checksum tamper degrades to a miss" `Quick
            test_checksum_tamper_is_a_miss;
          Alcotest.test_case "forged trace is evicted and re-solved" `Quick
            test_forged_trace_is_stale;
          Alcotest.test_case "stats/gc/clear administration" `Quick test_stats_gc_clear;
          Alcotest.test_case "never-hit entries are evicted first" `Quick
            test_hit_aware_eviction;
          Alcotest.test_case "maintain: age/size watermarks, LRU hit refresh" `Quick
            test_maintain_watermarks;
          Alcotest.test_case "EMMVER_CACHE_DIR overrides the default" `Quick
            test_default_dir_env_override;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "same-key racing writers" `Quick
            test_same_key_racing_writers;
          Alcotest.test_case "verify_many -j4 shares one store" `Quick
            test_verify_many_shared_store;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "isomorphic cones solved once" `Quick
            test_dedup_transfers_verdict;
          Alcotest.test_case "dedup invariant under -j" `Quick
            test_dedup_consistent_across_jobs;
          Alcotest.test_case "certify disables dedup" `Quick test_certify_disables_dedup;
        ] );
      ( "delta",
        [
          Alcotest.test_case "unchanged hits, changed re-verifies" `Quick
            test_verify_delta_classification;
        ] );
    ]
