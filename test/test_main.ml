let () =
  Alcotest.run "weakkeys"
    [
      ("nat", Test_nat.tests);
      ("montgomery", Test_montgomery.tests);
      ("prime", Test_prime.tests);
      ("hashes", Test_hashes.tests);
      ("entropy", Test_entropy.tests);
      ("rsa", Test_rsa.tests);
      ("x509", Test_x509.tests);
      ("corpus", Test_corpus.tests);
      ("batchgcd", Test_batchgcd.tests);
      ("netsim", Test_netsim.tests);
      ("fingerprint", Test_fingerprint.tests);
      ("attribution", Test_attribution.tests);
      ("analysis", Test_analysis.tests);
      ("pipeline", Test_pipeline.tests);
      ("golden", Test_golden.tests);
      ("export", Test_export.tests);
      ("lint", Test_lint.tests);
      ("cli", Test_cli.tests);
    ]
