module Ptm_pmdk = Suite_ptm_generic.Make (Ptm.Pmdk_sim)
module Ptm_onefile = Suite_ptm_generic.Make (Ptm.Onefile)
module Ptm_cx_puc = Suite_ptm_generic.Make (Ptm.Cx_ptm.Puc)
module Ptm_cx_ptm = Suite_ptm_generic.Make (Ptm.Cx_ptm.Ptm)
module Ptm_romulus = Suite_ptm_generic.Make (Ptm.Romulus)
module Ptm_redo = Suite_ptm_generic.Make (Ptm.Redo_ptm.Base)
module Ptm_redo_timed = Suite_ptm_generic.Make (Ptm.Redo_ptm.Timed)
module Ptm_redo_opt = Suite_ptm_generic.Make (Ptm.Redo_ptm.Opt)

(* Data structures over a blocking oracle PTM and the paper's flagship. *)
module A_pmdk = Suite_pds.Set_adapters (Ptm.Pmdk_sim)
module A_redoopt = Suite_pds.Set_adapters (Ptm.Redo_ptm.Opt)
module A_cxptm = Suite_pds.Set_adapters (Ptm.Cx_ptm.Ptm)
module List_pmdk = Suite_pds.Make_set_suite (Ptm.Pmdk_sim) (A_pmdk.List_set)
module Tree_pmdk = Suite_pds.Make_set_suite (Ptm.Pmdk_sim) (A_pmdk.Rbtree_set)
module Hash_pmdk = Suite_pds.Make_set_suite (Ptm.Pmdk_sim) (A_pmdk.Hash_set)
module List_redo = Suite_pds.Make_set_suite (Ptm.Redo_ptm.Opt) (A_redoopt.List_set)
module Tree_redo = Suite_pds.Make_set_suite (Ptm.Redo_ptm.Opt) (A_redoopt.Rbtree_set)
module Hash_redo = Suite_pds.Make_set_suite (Ptm.Redo_ptm.Opt) (A_redoopt.Hash_set)
module Tree_cx = Suite_pds.Make_set_suite (Ptm.Cx_ptm.Ptm) (A_cxptm.Rbtree_set)
module Hash_cx = Suite_pds.Make_set_suite (Ptm.Cx_ptm.Ptm) (A_cxptm.Hash_set)
module Queue_pmdk = Suite_pds.Queue_suite (Ptm.Pmdk_sim)
module Queue_redo = Suite_pds.Queue_suite (Ptm.Redo_ptm.Opt)
module Queue_onefile = Suite_pds.Queue_suite (Ptm.Onefile)
module Hm_fhmp = Suite_pds.Handmade_suite (Pds.Handmade_queue.Fhmp)
module Hm_norm = Suite_pds.Handmade_suite (Pds.Handmade_queue.Norm_opt)
module Lin_redoopt = Suite_linearizability.Make (Ptm.Redo_ptm.Opt)
module Lin_onefile = Suite_linearizability.Make (Ptm.Onefile)
module Lin_cxptm = Suite_linearizability.Make (Ptm.Cx_ptm.Ptm)
module Lin_pmdk = Suite_linearizability.Make (Ptm.Pmdk_sim)
module Rec_redoopt = Suite_recovery.Make (Ptm.Redo_ptm.Opt)
module Rec_redo = Suite_recovery.Make (Ptm.Redo_ptm.Base)
module Rec_cxptm = Suite_recovery.Make (Ptm.Cx_ptm.Ptm)
module Rec_cxpuc = Suite_recovery.Make (Ptm.Cx_ptm.Puc)
module Rec_onefile = Suite_recovery.Make (Ptm.Onefile)
module Rec_pmdk = Suite_recovery.Make (Ptm.Pmdk_sim)
module Rec_romulus = Suite_recovery.Make (Ptm.Romulus)
module Fallback_cxptm = Suite_recovery.Fallback (Ptm.Cx_ptm.Ptm)
module Fallback_redoopt = Suite_recovery.Fallback (Ptm.Redo_ptm.Opt)
module Multi_redoopt = Suite_multi.Make (Ptm.Redo_ptm.Opt)
module Multi_cxptm = Suite_multi.Make (Ptm.Cx_ptm.Ptm)
module Multi_onefile = Suite_multi.Make (Ptm.Onefile)
module Multi_pmdk = Suite_multi.Make (Ptm.Pmdk_sim)
module CE = Ptm.Crash_explorer
module Cp_pmdk = Suite_crashpoints.Make (CE.Of_ptm (Ptm.Pmdk_sim))
module Cp_onefile = Suite_crashpoints.Make (CE.Of_ptm (Ptm.Onefile))
module Cp_romulus = Suite_crashpoints.Make (CE.Of_ptm (Ptm.Romulus))
module Cp_cx_puc = Suite_crashpoints.Make (CE.Of_ptm (Ptm.Cx_ptm.Puc))
module Cp_cx_ptm = Suite_crashpoints.Make (CE.Of_ptm (Ptm.Cx_ptm.Ptm))
module Cp_redo = Suite_crashpoints.Make (CE.Of_ptm (Ptm.Redo_ptm.Base))
module Cp_redo_timed = Suite_crashpoints.Make (CE.Of_ptm (Ptm.Redo_ptm.Timed))
module Cp_redo_opt = Suite_crashpoints.Make (CE.Of_ptm (Ptm.Redo_ptm.Opt))
module Cp_onll = Suite_crashpoints.Make (CE.Onll_target)
module Pt_redo = Suite_poisoned_tail.Make (Ptm.Redo_ptm.Base) (Suite_poisoned_tail.Redo_nrep)
module Pt_redo_opt = Suite_poisoned_tail.Make (Ptm.Redo_ptm.Opt) (Suite_poisoned_tail.Redo_nrep)
module Pt_cx_ptm = Suite_poisoned_tail.Make (Ptm.Cx_ptm.Ptm) (Suite_poisoned_tail.Cx_nrep)
module Pt_cx_puc = Suite_poisoned_tail.Make (Ptm.Cx_ptm.Puc) (Suite_poisoned_tail.Cx_nrep)
module Db_redodb = Suite_db.Make (Kv.Redodb)
module Db_rocks = Suite_db.Make (Kv.Rocksdb_sim)

let () =
  Alcotest.run "repro"
    (List.concat
       [
         Suite_obs.suites;
         Suite_pmem.suites;
         Suite_palloc.suites;
         Suite_sync.suites;
         Suite_sched.suites;
         Suite_internals.suites;
         Ptm_pmdk.suites;
         Ptm_onefile.suites;
         Ptm_cx_puc.suites;
         Ptm_cx_ptm.suites;
         Ptm_romulus.suites;
         Ptm_redo.suites;
         Ptm_redo_timed.suites;
         Ptm_redo_opt.suites;
         List_pmdk.suites;
         Tree_pmdk.suites;
         Hash_pmdk.suites;
         List_redo.suites;
         Tree_redo.suites;
         Hash_redo.suites;
         Tree_cx.suites;
         Hash_cx.suites;
         Queue_pmdk.suites;
         Queue_redo.suites;
         Queue_onefile.suites;
         Hm_fhmp.suites;
         Hm_norm.suites;
         Suite_onll.suites;
         Suite_cx_volatile.suites;
         Lin_redoopt.suites;
         Lin_onefile.suites;
         Lin_cxptm.suites;
         Lin_pmdk.suites;
         Rec_redoopt.suites;
         Rec_redo.suites;
         Rec_cxptm.suites;
         Rec_cxpuc.suites;
         Rec_onefile.suites;
         Rec_pmdk.suites;
         Rec_romulus.suites;
         Fallback_cxptm.suites;
         Fallback_redoopt.suites;
         Multi_redoopt.suites;
         Multi_cxptm.suites;
         Multi_onefile.suites;
         Multi_pmdk.suites;
         Cp_pmdk.suites;
         Cp_onefile.suites;
         Cp_romulus.suites;
         Cp_cx_puc.suites;
         Cp_cx_ptm.suites;
         Cp_redo.suites;
         Cp_redo_timed.suites;
         Cp_redo_opt.suites;
         Cp_onll.suites;
         Suite_crashpoints.mutant_suites;
         Pt_redo.suites;
         Pt_redo_opt.suites;
         Pt_cx_ptm.suites;
         Pt_cx_puc.suites;
         Suite_poisoned_tail.db_suites;
         Db_redodb.suites;
         Db_rocks.suites;
         Suite_db.flush_suites;
         Suite_db.cursor_suites;
         Suite_serve.suites;
         Suite_audit.suites;
       ])
